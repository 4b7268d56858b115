package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/backoff"
)

// Environment keys of the self-spawn protocol: the coordinator launches
// its own binary again with envWorker pointing at its control listener,
// and MaybeWorker turns that process into a worker before the host
// program's main logic runs.
const (
	envWorker = "ARCHDIST_WORKER"
	envToken  = "ARCHDIST_TOKEN"
	// envCrashRank is a test hook: the worker whose assigned rank matches
	// kills itself when the first message for its rank reaches it,
	// simulating a mid-run crash.
	envCrashRank = "ARCHDIST_CRASH_RANK"
)

// SpawnWorker starts one worker process for a coordinator of either wire
// backend: argv when given, else this binary re-executed (its main
// diverts into the worker loop through MaybeWorker), with env — the
// coordinator address and world token — added to the inherited
// environment and stderr shared. Reaping is the caller's policy: dist
// fails the world when a worker exits mid-run, elastic treats the exit as
// the trigger for recovery.
func SpawnWorker(argv []string, env ...string) (*exec.Cmd, error) {
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locating own binary: %w", err)
		}
		argv = []string{exe}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning worker: %w", err)
	}
	return cmd, nil
}

// MaybeWorker turns the current process into a dist worker when it was
// self-spawned by a dist coordinator (the ARCHDIST_WORKER environment
// variable is set) and never returns in that case; otherwise it is a
// no-op. Call it first thing in main (and in TestMain) of any binary
// that should support the dist backend's default self-spawn mode —
// cmd/archdemo, cmd/archbench, cmd/archworker, and the repository's test
// binaries all do.
func MaybeWorker() {
	addr := os.Getenv(envWorker)
	if addr == "" {
		return
	}
	if err := JoinWorld(addr, os.Getenv(envToken)); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// JoinWorld dials a coordinator's control address and serves worlds as a
// worker until the coordinator closes the connection (nil) or a world
// dies (the error). The address is "host:port" for TCP or "unix:/path"
// for a coordinator on the same host (the self-spawn default: a
// unix-domain control socket shaves scheduler latency off every
// coordinator↔worker crossing). The initial dial retries with
// exponential backoff and jitter (see backoff.Dial) instead of failing
// on the first connection-refused, so a worker started moments before
// its coordinator — the common race when both sides launch from one
// script — attaches instead of dying. An empty token falls back to the
// ARCHDIST_TOKEN environment variable, so explicit worker entry points
// (archworker -join, archdemo -worker) authenticate the same way
// self-spawned workers do.
func JoinWorld(addr, token string) error {
	if token == "" {
		token = os.Getenv(envToken)
	}
	network, dialAddr := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, dialAddr = "unix", path
	}
	var conn net.Conn
	err := backoff.Dial().Retry(context.Background(), func() error {
		var err error
		conn, err = net.Dial(network, dialAddr)
		return err
	})
	if err != nil {
		return fmt.Errorf("dist: dialing coordinator %s: %w", addr, err)
	}
	return ServeConn(conn, token)
}

// Serve accepts coordinator connections on l and serves worlds on each,
// concurrently — the attach-mode worker loop behind cmd/archworker.
// Transient Accept failures (EMFILE, ECONNABORTED, a momentarily wedged
// stack) back off with capped exponential delay and keep serving — one
// bad accept must not kill the whole serving loop — so Serve returns
// only when the listener itself is closed (closing l is the way to stop
// it).
func Serve(l net.Listener) error {
	policy := backoff.Policy{Base: 5 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	fails := 0
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			time.Sleep(policy.Delay(fails))
			fails++
			continue
		}
		fails = 0
		go func() {
			if err := ServeConn(conn, ""); err != nil {
				fmt.Fprintf(os.Stderr, "dist worker: world failed: %v\n", err)
			}
		}()
	}
}

// Control-loop internal signals: errWorldFinished marks a world's clean
// finish barrier, errConnDone the coordinator's disappearance (the
// connection is the worker's lease on life — when it closes, between or
// during worlds, the worker is simply done; a cancelled run and a pooled
// worker's final release look identical from here).
var (
	errWorldFinished = errors.New("dist: world finished")
	errConnDone      = errors.New("dist: coordinator connection closed")
)

// ServeConn speaks the worker side of the control protocol on an
// established coordinator connection, serving worlds back to back: each
// iteration runs one world's handshake (hello → assign → ready), its
// message traffic, and its finish barrier, then offers a fresh hello for
// the next world on the same connection — which is how the coordinator's
// worker pool reuses a warm process instead of paying a spawn per world.
// It returns nil when the coordinator closes the connection (the normal
// end, whether after one world or many) and an error only for substrate
// failures; in a spawned worker process the nonzero exit is what tells
// the coordinator's process monitor the world is dead. token travels in
// every hello frame; self-spawned workers relay the coordinator's
// secret, attach-mode workers send the empty string (the coordinator
// dialed them, so the connection itself is the introduction).
func ServeConn(conn net.Conn, token string) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for first := true; ; first = false {
		err := serveWorld(conn, br, token, first)
		switch {
		case err == nil: // clean finish: offer the next world
		case errors.Is(err, errConnDone):
			return nil
		default:
			return err
		}
	}
}

// serveWorld runs one world on the control connection. The worker's hot
// path is the verbatim push: an opSend frame arriving here was routed by
// the coordinator down the *destination's* connection — this worker's
// rank is the addressee — so its body goes straight back up as an
// opDeliver, untouched. The control Writer follows the flush-on-idle
// discipline: frames accumulate while more input is already buffered,
// and flush as one (possibly multi-message) frame the moment the loop
// would block.
func serveWorld(conn net.Conn, br *bufio.Reader, token string, first bool) error {
	if err := WriteFrame(conn, opHello, HelloBody(token, os.Getpid())); err != nil {
		if first {
			return fmt.Errorf("dist: worker hello: %w", err)
		}
		return errConnDone
	}
	op, body, err := ReadFrame(br)
	if err != nil {
		if first {
			return fmt.Errorf("dist: worker awaiting assignment: %w", err)
		}
		return errConnDone
	}
	if op != opAssign {
		return fmt.Errorf("dist: worker expected assign frame, got op %d", op)
	}
	rank, _, err := parseAssign(body)
	if err != nil {
		return err
	}
	crash := os.Getenv(envCrashRank) == strconv.Itoa(rank)
	control := NewWriter(conn)

	if err := WriteFrame(conn, opReady, nil); err != nil {
		return fmt.Errorf("dist: worker ready: %w", err)
	}

	// The control loop: read the coordinator's frames directly (nothing
	// here blocks on anything but the connection, so a vanished
	// coordinator unblocks the loop by failing the read), flushing only
	// when no further frame is already buffered. Frames land in a reused
	// scratch buffer: every dispatch arm copies the body into the control
	// Writer's pending buffer before the next read, so the loop is
	// allocation-free in steady state.
	var ctrlBuf []byte
	for {
		op, body, err := ReadFrameInto(br, &ctrlBuf)
		if err != nil {
			// Control connection gone without a finish frame: the
			// coordinator cancelled, crashed, or released this pooled
			// worker. Exiting quietly is the expected path.
			return errConnDone
		}
		err = forEachFrame(op, body, func(op byte, b []byte) error {
			switch op {
			case opSend:
				if crash {
					// Test hook: die exactly where a real fault would —
					// mid-run, with ranks blocked on messages that will
					// never arrive.
					os.Exit(3)
				}
				return control.Write(opDeliver, b)
			case opFinish:
				// Finish barrier: acknowledge, then tear down.
				if err := control.Write(opBye, nil); err != nil {
					return fmt.Errorf("dist: worker %d: bye: %w", rank, err)
				}
				return errWorldFinished
			default:
				return fmt.Errorf("dist: worker %d: unexpected control op %d", rank, op)
			}
		})
		if errors.Is(err, errWorldFinished) {
			return flushControl(control, rank)
		}
		if err == nil && !pendingFrame(br) {
			err = flushControl(control, rank)
		}
		if err != nil {
			if connIOErr(err) {
				// A delivery push failed at the socket level: the
				// coordinator tore the world down (cancellation, a peer's
				// failure) while frames were in flight. That is the same
				// quiet exit as the read path seeing the connection close —
				// only protocol violations deserve noise.
				return errConnDone
			}
			return err
		}
	}
}

// flushControl puts the worker's pending pushes on the wire — the control
// loop's idle point.
func flushControl(control *Writer, rank int) error {
	if err := control.Flush(); err != nil {
		return fmt.Errorf("dist: worker %d flushing control: %w", rank, err)
	}
	return nil
}

// connIOErr distinguishes connection-level I/O failures (the world is
// being torn down around this worker) from protocol violations (a
// malformed or unexpected frame — a bug worth reporting loudly).
func connIOErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}
