package server

import (
	"strconv"

	"repro/internal/deploy"
	"repro/internal/jsonx"
	"repro/internal/spec"
)

// OverheadSpec is the JSON form of the per-host VMM overhead (§3.1)
// deducted once when a session opens.
type OverheadSpec struct {
	Proc float64 `json:"proc_mips,omitempty"`
	Mem  int64   `json:"mem_mb,omitempty"`
	Stor float64 `json:"stor_gb,omitempty"`
}

// OpenSessionRequest is the body of POST /v1/sessions: the physical
// cluster the session manages, the mapper that places every environment
// ("HMN", also the default; any other name is a 400), and the VMM
// overhead.
type OpenSessionRequest struct {
	Cluster  spec.ClusterSpec `json:"cluster"`
	Mapper   string           `json:"mapper,omitempty"`
	Overhead OverheadSpec     `json:"overhead,omitempty"`
}

// OpenSessionResponse identifies the opened session.
type OpenSessionResponse struct {
	ID     string `json:"id"`
	Mapper string `json:"mapper"`
	Hosts  int    `json:"hosts"`
	Nodes  int    `json:"nodes"`
}

// MapEnvRequest is the body of POST /v1/sessions/{sid}/envs: the virtual
// environment to deploy against the session's residual resources.
// Plan/PlanShell additionally return the per-host deployment plan and
// its shell rendering.
type MapEnvRequest struct {
	Env       spec.EnvSpec `json:"env"`
	Plan      bool         `json:"plan,omitempty"`
	PlanShell bool         `json:"plan_shell,omitempty"`
}

// AdmitResponse reports an admission in either mode: its fragments (one
// when the environment landed whole; on shard 0 of a classic daemon),
// the gateway bandwidth a split charged, and the routing outcome flags.
type AdmitResponse struct {
	ID        string           `json:"id"`
	Fragments []FragmentReport `json:"fragments"`
	CutBW     float64          `json:"cut_bw,omitempty"`
	Split     bool             `json:"split,omitempty"`
	Fallback  bool             `json:"fallback,omitempty"`
}

// FragmentReport is one committed fragment of an admission, with, on
// request, its deployment plan and the plan's shell rendering.
type FragmentReport struct {
	Shard     int              `json:"shard"`
	Guests    []int            `json:"guests,omitempty"`
	Mapping   spec.MappingSpec `json:"mapping"`
	Plan      *deploy.Plan     `json:"plan,omitempty"`
	PlanShell string           `json:"plan_shell,omitempty"`
}

// MapEnvResponse was the classic admit reply before a classic admission
// became one fragment; the frozen benchmark harness still encodes it.
type MapEnvResponse struct {
	ID      string           `json:"id"`
	Mapping spec.MappingSpec `json:"mapping"`
}

// ResidualsResponse is the body of GET /v1/sessions/{sid}/residuals: the
// live residual-CPU vector across deployed environments (the rproc of
// Eq. 10), its standard deviation (the session's current objective), and
// the number of active environments.
type ResidualsResponse struct {
	ResidualProcMIPS []float64 `json:"residual_proc_mips"`
	StdDev           float64   `json:"stddev"`
	ActiveEnvs       int       `json:"active_envs"`
}

// RepairReport is the fate of one environment evicted by a failure: it
// was repaired (placements kept, broken paths re-routed), replaced
// (fully re-mapped on the degraded cluster) or unrecoverable (still
// evicted; Error says why). Repaired and replaced environments keep
// their IDs and carry their new mapping.
type RepairReport struct {
	Env     string            `json:"env"`
	Outcome string            `json:"outcome"`
	Error   string            `json:"error,omitempty"`
	Mapping *spec.MappingSpec `json:"mapping,omitempty"`
}

// FailTargetResponse is the body of
// POST /v1/sessions/{sid}/hosts/{node}/fail and
// POST /v1/sessions/{sid}/links/{edge}/fail: the environments the
// failure evicted, in deterministic admission order, each with its
// repair outcome.
type FailTargetResponse struct {
	Kind    string         `json:"kind"` // "host" or "link"
	Target  int            `json:"target"`
	Evicted int            `json:"evicted"`
	Results []RepairReport `json:"results"`
}

// RebalanceResponse is the body of POST /v1/sessions/{sid}/rebalance:
// one synchronous rebalancing round. Moves counts the guest migrations
// committed; the stddev pair brackets the round (equal when the session
// was already balanced or every planned unit lost its commit race).
type RebalanceResponse struct {
	Moves        int     `json:"moves"`
	StdDevBefore float64 `json:"stddev_before"`
	StdDevAfter  float64 `json:"stddev_after"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

var requestKeys = jsonx.NewKeys("env", "plan", "plan_shell")

// ScanJSON is MapEnvRequest's decoding fast path (see
// spec.DecodeStrict): the whole request or nothing.
func (r *MapEnvRequest) ScanJSON(s *jsonx.Scanner) bool {
	var v MapEnvRequest
	if r.Env.Guests != nil || r.Env.Links != nil || r.Plan || r.PlanShell {
		return false
	}
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(requestKeys, &f) {
		case 0: // env
			if !v.Env.ScanJSON(s) {
				s.Fail()
			}
		case 1: // plan
			v.Plan = s.Bool()
		case 2: // plan_shell
			v.PlanShell = s.Bool()
		}
	}
	if !s.OK() {
		return false
	}
	*r = v
	return true
}

// AppendJSON implements jsonx.Appender.
func (r MapEnvResponse) AppendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"id":`...)
	dst = jsonx.AppendString(dst, r.ID, &ok)
	dst = append(dst, `,"mapping":`...)
	dst, mok := r.Mapping.AppendJSON(dst)
	return append(dst, '}'), ok && mok
}

// AppendJSON implements jsonx.Appender. A reply carrying a deployment
// plan, or no fragment list, is left to encoding/json.
func (r AdmitResponse) AppendJSON(dst []byte) ([]byte, bool) {
	if r.Fragments == nil {
		return dst, false
	}
	ok := true
	dst = append(dst, `{"id":`...)
	dst = jsonx.AppendString(dst, r.ID, &ok)
	dst = append(dst, `,"fragments":[`...)
	for i := range r.Fragments {
		fr := &r.Fragments[i]
		if fr.Plan != nil {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"shard":`...)
		dst = strconv.AppendInt(dst, int64(fr.Shard), 10)
		if len(fr.Guests) > 0 {
			dst = append(dst, `,"guests":`...)
			dst = jsonx.AppendInts(dst, fr.Guests)
		}
		dst = append(dst, `,"mapping":`...)
		var mok bool
		dst, mok = fr.Mapping.AppendJSON(dst)
		ok = ok && mok
		if fr.PlanShell != "" {
			dst = append(dst, `,"plan_shell":`...)
			dst = jsonx.AppendString(dst, fr.PlanShell, &ok)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if r.CutBW != 0 {
		dst = append(dst, `,"cut_bw":`...)
		dst = jsonx.AppendFloat(dst, r.CutBW, &ok)
	}
	if r.Split {
		dst = append(dst, `,"split":true`...)
	}
	if r.Fallback {
		dst = append(dst, `,"fallback":true`...)
	}
	return append(dst, '}'), ok
}
