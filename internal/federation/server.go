package federation

import (
	"context"
	"time"

	"envmon/internal/obs"
	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// NewServer returns envfedd's HTTP front over fed: the httpapi server
// with fed as its Backend, envfed_http_* metrics, and /members listing
// every downstream daemon's breaker position. It answers the same
// documents as a single envmond (plus the degraded section on partial
// results), so existing clients (envtop -remote) work unmodified. The
// request's deadline_ms, else the server's DefaultDeadline, bounds the
// whole fan-out; a member that misses it becomes a MissingMember in the
// partial response — the deadline produces degraded answers, not hung
// connections. Instrument also registers fed's member metrics.
func NewServer(fed *Federator) *httpapi.Server {
	s := httpapi.NewServer(backend{fed}, "envfed")
	s.Handle("/members", func() (any, error) {
		return httpapi.MembersResult{Members: fed.Members()}, nil
	})
	return s
}

// backend is the httpapi.Backend over a Federator: validated wire
// parameters are forwarded to the members in their canonical spellings.
type backend struct{ fed *Federator }

func (b backend) Query(ctx context.Context, q telemetry.Query) (httpapi.QueryResult, error) {
	p := QueryParams{
		Node:       q.Node,
		Backend:    q.Backend,
		Domain:     q.Domain,
		From:       q.From,
		To:         q.To,
		Resolution: q.Resolution.String(),
	}
	if q.Aggregate != telemetry.AggNone {
		p.Aggregate = q.Aggregate.String()
	}
	return b.fed.Query(ctx, p), nil
}

func (b backend) TopK(ctx context.Context, k int, domain string, from, to time.Duration, res telemetry.Resolution) (httpapi.TopKResult, error) {
	return b.fed.TopK(ctx, TopKParams{K: k, Domain: domain, From: from, To: to, Resolution: res.String()}), nil
}

func (b backend) Health(ctx context.Context) httpapi.Health { return b.fed.Health(ctx) }

func (b backend) Instrument(reg *obs.Registry) { b.fed.Instrument(reg) }
