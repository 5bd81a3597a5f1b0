package sim

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// ExperimentConfig parameterises the emulated experiment run on top of a
// mapping — the reproduction's stand-in for the tester's application
// (§5.2 measures "the time to run the experiment" per mapping).
type ExperimentConfig struct {
	// BaseSeconds is the nominal duration of every guest's CPU task: a
	// guest demanding vproc MIPS carries vproc*BaseSeconds million
	// instructions of work, so on a host exactly as large as its guests'
	// total demand it finishes in exactly BaseSeconds (sooner on an
	// underloaded host, whose spare capacity the guests share). Defaults
	// to 1.
	BaseSeconds float64

	// TransferSeconds sizes the communication phase: every virtual link
	// carries vbw*TransferSeconds Mbit, moved at its reserved vbw, so an
	// inter-host transfer takes TransferSeconds plus the path's latency.
	// Intra-host links (infinite bandwidth, zero latency per §3.2)
	// complete instantly. Zero disables the phase. Defaults to 1.
	TransferSeconds float64

	// Network selects the transfer model. The default, Reserved, moves
	// every virtual link's data at its reserved vbw (what the mapping
	// guarantees via Eq. 9); BestEffort ignores reservations and lets
	// concurrent transfers share the physical links max-min fairly —
	// the world without admission control, for the reservation ablation.
	Network NetworkMode

	// Overhead is the VMM overhead the mapping was computed under; it
	// shrinks each host's usable capacity.
	Overhead cluster.VMMOverhead
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.BaseSeconds == 0 {
		c.BaseSeconds = 1
	}
	if c.TransferSeconds == 0 {
		c.TransferSeconds = 1
	}
	return c
}

// Result summarises one emulated experiment.
type Result struct {
	// Makespan is the experiment execution time: the instant the last
	// guest task and the last transfer complete.
	Makespan float64
	// ComputeMakespan is the last CPU task completion.
	ComputeMakespan float64
	// TransferMakespan is the last transfer completion.
	TransferMakespan float64
	// GuestFinish holds each guest's task completion time, indexed by
	// guest ID (+Inf for guests starved by a zero-capacity host).
	GuestFinish []float64
	// Events is the number of simulation events processed.
	Events int
}

// RunExperiment deploys the mapped virtual environment and executes the
// emulated experiment: every guest runs a CPU task of
// vproc*BaseSeconds MI on its host (work-conserving processor sharing,
// as CloudSim's time-shared scheduler),
// and every virtual link moves vbw*TransferSeconds Mbit at its reserved
// bandwidth across its mapped path. The returned makespan is the Table 3
// quantity, and its correlation with the mapping's objective function is
// the §5.2 experiment.
//
// The mapping is assumed valid (see mapping.Validate).
func RunExperiment(m *mapping.Mapping, cfg ExperimentConfig) Result {
	cfg = cfg.withDefaults()
	eng := NewEngine()

	// Group guest tasks per host.
	type hostTasks struct {
		tasks  []Task
		guests []virtual.GuestID
	}
	perHost := map[graph.NodeID]*hostTasks{}
	for g, node := range m.GuestHost {
		gid := virtual.GuestID(g)
		guest := m.Env.Guest(gid)
		ht := perHost[node]
		if ht == nil {
			ht = &hostTasks{}
			perHost[node] = ht
		}
		ht.tasks = append(ht.tasks, Task{Work: guest.Proc * cfg.BaseSeconds, Demand: guest.Proc})
		ht.guests = append(ht.guests, gid)
	}

	res := Result{GuestFinish: make([]float64, m.Env.NumGuests())}
	hosts := make(map[graph.NodeID]*psHost, len(perHost))
	for node, ht := range perHost {
		h, ok := m.Cluster.HostAt(node)
		capacity := 0.0
		if ok {
			capacity = h.Proc - cfg.Overhead.Proc
		}
		hosts[node] = startPSHost(eng, capacity, ht.tasks)
	}

	// Transfers.
	if cfg.TransferSeconds > 0 {
		net := m.Cluster.Net()
		switch cfg.Network {
		case BestEffort:
			// Max-min fair sharing of the raw physical links, ignoring
			// the reservations (no admission control).
			flows := make([]Flow, m.Env.NumLinks())
			for _, link := range m.Env.Links() {
				flows[link.ID] = Flow{
					Path: m.LinkPath[link.ID],
					Data: link.BW * cfg.TransferSeconds,
				}
			}
			for _, t := range SimulateFlows(net, net.NominalBandwidth(), flows) {
				if t > res.TransferMakespan {
					res.TransferMakespan = t
				}
			}
		default: // Reserved: constant rate at the reserved vbw.
			for _, link := range m.Env.Links() {
				p := m.LinkPath[link.ID]
				var dur float64
				if p.Len() == 0 {
					dur = 0 // intra-host: infinite bandwidth, zero latency
				} else {
					dur = cfg.TransferSeconds + p.Latency(net)/1000.0
				}
				eng.Schedule(dur, func() {
					if t := eng.Now(); t > res.TransferMakespan {
						res.TransferMakespan = t
					}
				})
			}
		}
	}

	eng.Run()

	for node, ht := range perHost {
		h := hosts[node]
		for i, gid := range ht.guests {
			switch {
			case ht.tasks[i].Work <= 0:
				res.GuestFinish[gid] = 0
			case h.remaining[i] > 0:
				res.GuestFinish[gid] = math.Inf(1)
			default:
				res.GuestFinish[gid] = h.finish[i]
			}
			if res.GuestFinish[gid] > res.ComputeMakespan {
				res.ComputeMakespan = res.GuestFinish[gid]
			}
		}
	}
	res.Makespan = res.ComputeMakespan
	if res.TransferMakespan > res.Makespan {
		res.Makespan = res.TransferMakespan
	}
	res.Events = eng.Processed()
	return res
}
