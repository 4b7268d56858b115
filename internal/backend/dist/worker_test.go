package dist

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/spmd"
)

// flakyListener injects transient Accept failures before delegating to a
// real listener — the EMFILE / momentarily-wedged-stack shape.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept: too many open files")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func (l *flakyListener) remaining() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fails
}

// TestServeRecoversFromTransientAcceptErrors is the Serve regression: a
// burst of transient Accept failures must not kill the serving loop — a
// world attaching right after them still runs — and Serve returns only
// when the listener itself closes.
func TestServeRecoversFromTransientAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}
	served := make(chan error, 1)
	go func() { served <- Serve(fl) }()

	w, err := spmd.NewWorldOn(context.Background(), New(WithWorkers(ln.Addr().String())), 1, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(p *spmd.Proc) {
		p.Send(0, 1, 42)
		if v := spmd.Recv[int](p, 0, 1); v != 42 {
			panic("self-send corrupted")
		}
	}); err != nil {
		t.Fatalf("world after transient accept errors: %v", err)
	}
	if got := fl.remaining(); got != 0 {
		t.Errorf("%d injected accept failures never hit the loop", got)
	}

	ln.Close()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve = %v, want net.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
}
