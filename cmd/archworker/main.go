// Command archworker is a standalone worker for the dist and elastic
// execution backends: a message endpoint run as its own OS process.
//
// Both backends usually self-spawn workers by re-executing the
// coordinator's binary (any binary whose main calls dist.MaybeWorker and
// elastic.MaybeWorker supports that, including archdemo and archbench).
// archworker is the standalone alternative — workers started ahead of
// time, possibly under their own supervisor or on another host — and a
// minimal join client for debugging:
//
//	archworker -listen 127.0.0.1:9101            # serve dist worlds until killed
//	archworker -join  127.0.0.1:54321            # join one dist world, then exit
//	archworker -elastic -join 127.0.0.1:54321    # serve an elastic coordinator
//
// A listening worker serves each incoming coordinator connection
// (concurrently, so overlapping runs work) and keeps listening; a
// coordinator attaches with the dist backend's WithWorkers option, e.g.
// dist.New(dist.WithWorkers("127.0.0.1:9101", ...)). Workers talk only to
// their coordinator, never to each other, so the -listen address is the
// one port a worker opens.
//
// Joins retry their initial dial with exponential backoff and jitter, so
// a worker launched moments before its coordinator attaches instead of
// dying on the first connection-refused. An elastic join additionally
// reconnects after a lost coordinator connection, rejoining the world as
// a fresh worker (the coordinator reschedules whatever it hosted); it can
// be started mid-run and immediately pulls queued rank tasks. The world
// token travels in -token or the backend's token environment variable.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/backend/dist"
	"repro/internal/elastic"
)

func main() {
	dist.MaybeWorker()
	elastic.MaybeWorker()
	var (
		listen    = flag.String("listen", "", "serve dist worlds for coordinators that dial this address")
		join      = flag.String("join", "", "join the coordinator at this address for one world, then exit")
		useElast  = flag.Bool("elastic", false, "join an elastic coordinator instead of a dist one")
		joinToken = flag.String("token", "", "world token for -elastic -join (default: ARCHELASTIC_TOKEN)")
	)
	flag.Parse()

	switch {
	case *listen != "" && *join == "" && !*useElast:
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("archworker: serving dist worlds on %s\n", ln.Addr())
		if err := dist.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
	case *join != "" && *listen == "" && !*useElast:
		if err := dist.JoinWorld(*join, ""); err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
	case *join != "" && *listen == "" && *useElast:
		token := *joinToken
		if token == "" {
			token = os.Getenv("ARCHELASTIC_TOKEN")
		}
		if err := elastic.Join(context.Background(), *join, token); err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "archworker: exactly one of -listen or -join is required (-elastic applies to -join)")
		flag.Usage()
		os.Exit(2)
	}
}
