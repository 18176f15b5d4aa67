package oracle

import (
	"context"
	"net"
	"net/http"
	"time"

	bpi "bpi"
	"bpi/internal/service"
)

// Daemon is an in-process bpid instance on a loopback listener, driven
// through the public bpi.Client the engines/agree law needs. Running the
// real HTTP stack (handlers, verdict LRU, worker pool) keeps the
// differential check honest: the daemon path shares no in-memory state
// with Env.Seq.
type Daemon struct {
	*bpi.Client
	srv  *service.Server
	http *http.Server
}

// StartDaemon boots a bpid service on 127.0.0.1:0.
func StartDaemon(cfg service.Config) (*Daemon, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}
	cl := bpi.NewClient("http://" + lis.Addr().String())
	cl.HTTP = &http.Client{Timeout: 60 * time.Second}
	go hs.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return &Daemon{Client: cl, srv: srv, http: hs}, nil
}

// Close drains and stops the daemon.
func (d *Daemon) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.http.Shutdown(ctx); err == nil {
		err = herr
	}
	return err
}
