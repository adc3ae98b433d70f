// Package lifecycle is the serve-and-drain loop the envmon daemons share.
package lifecycle

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// drainBudget is how long in-flight requests get to finish once a daemon
// stops.
const drainBudget = 3 * time.Second

// Serve serves srv on ln until ctx is done or serving fails, then drains:
// drain, when non-nil, runs first (stop background work, turn new
// data-plane requests away), then in-flight requests get up to three
// seconds to finish. A stop through ctx returns nil; a serving failure is
// returned.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drain func()) error {
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
	case err = <-srvErr:
	}
	if drain != nil {
		drain()
	}
	if err == nil {
		sdCtx, cancel := context.WithTimeout(context.Background(), drainBudget)
		// Past the budget, stragglers are cut off: the daemon is
		// exiting either way.
		_ = srv.Shutdown(sdCtx)
		cancel()
		err = <-srvErr
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
