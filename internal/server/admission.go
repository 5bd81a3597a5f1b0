package server

import (
	"context"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/virtual"
)

// admitFunc admits env for session sid its mode's way. It returns the
// environment's ID (assigned even if the admission fails), where it
// landed, and the VMM overhead its domains run with.
type admitFunc func(ctx context.Context, sid string, env *virtual.Env) (string, shard.Placement, cluster.VMMOverhead, error)

// routeSessions registers both modes' one admit, release and close
// handler over the mode's function for each.
func (s *Server) routeSessions(admit admitFunc, release func(ctx context.Context, sid, eid string) error,
	closeSession func(ctx context.Context, sid string) error) {
	s.mux.HandleFunc("POST /v1/sessions/{sid}/envs", s.handleAdmit(admit, release))
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}/envs/{eid}", func(w http.ResponseWriter, r *http.Request) {
		if !refused(w, release(r.Context(), r.PathValue("sid"), r.PathValue("eid"))) {
			w.WriteHeader(http.StatusNoContent)
		}
	})
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}", func(w http.ResponseWriter, r *http.Request) {
		if !refused(w, closeSession(r.Context(), r.PathValue("sid"))) {
			w.WriteHeader(http.StatusNoContent)
		}
	})
}

// handleAdmit maps an environment and answers 201 with its fragments.
// A request whose client has gone is refused before it is admitted; an
// admission that completes after its client gave up is released through
// the mode's release, both records in the log, so no orphan holds
// resources under an unknown ID.
func (s *Server) handleAdmit(admit admitFunc, release func(ctx context.Context, sid, eid string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		env, ok := decodeMapEnv(w, r)
		if !ok {
			return
		}
		ctx, sid := r.Context(), r.PathValue("sid")
		if refused(w, ctx.Err()) {
			return
		}
		eid, pl, overhead, err := admit(ctx, sid, env)
		if err == nil && ctx.Err() != nil {
			_ = release(context.Background(), sid, eid)
			err = ctx.Err()
		}
		if refused(w, err) {
			return
		}
		// The admit record holds the request's bytes if the decoding fast
		// path took them (spec.EnvSpec.ScanJSON); a split's fragments are
		// built in code.
		if pl.Fragments[0].Env.Source() != nil {
			s.mEnvVerbatim.Inc()
		}
		resp := AdmitResponse{ID: eid, Fragments: make([]FragmentReport, len(pl.Fragments)),
			CutBW: pl.CutBW, Split: pl.Split, Fallback: pl.Fallback}
		for i, fr := range pl.Fragments {
			rep := &resp.Fragments[i]
			rep.Shard, rep.Mapping = fr.Shard, spec.FromMapping(fr.M, overhead)
			for _, g := range fr.Guests {
				rep.Guests = append(rep.Guests, int(g))
			}
		}
		writeJSON(w, http.StatusCreated, resp)
	}
}

// decodeMapEnv reads the body of POST /v1/sessions/{sid}/envs, or
// writes the 400.
func decodeMapEnv(w http.ResponseWriter, r *http.Request) (*virtual.Env, bool) {
	var req MapEnvRequest
	if err := spec.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	env, err := req.Env.ToEnv()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if env.NumGuests() == 0 {
		writeError(w, http.StatusBadRequest, "environment has no guests")
		return nil, false
	}
	return env, true
}
