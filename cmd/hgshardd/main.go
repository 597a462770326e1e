// Command hgshardd is a distributed-decomposition worker daemon: it
// dials the coordinator (a dist.DecomposeCtx run, such as the one
// hgcore -dist N -hgshardd PATH starts), receives its hypergraph and
// shard assignments over the dist wire protocol, and serves BSP peel
// rounds — heartbeating throughout — until the coordinator shuts it
// down or the connection drops.
//
// Usage:
//
//	hgshardd -connect HOST:PORT [-id N] [-heartbeat D] [-timeout D]
//
// The coordinator normally spawns hgshardd itself and passes -connect,
// -id (the worker slot this process fills, echoed in the Hello
// handshake) and -heartbeat; running it by hand is only useful for
// debugging a coordinator on another machine.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"

	"hyperplex/internal/cli"
	"hyperplex/internal/dist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hgshardd: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	defer cli.RecoverPanic(&err)
	fs := flag.NewFlagSet("hgshardd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	connect := fs.String("connect", "", "coordinator address to dial (required)")
	id := fs.Int("id", 0, "worker slot assigned by the coordinator")
	heartbeat := fs.Duration("heartbeat", dist.DefaultHeartbeatInterval, "liveness beacon interval")
	timeout := fs.Duration("timeout", 0, "abort if serving exceeds this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return errors.New("-connect is required")
	}
	ctx, cancel := cli.WithTimeout(context.Background(), *timeout)
	defer cancel()

	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	return dist.ServeWorker(ctx, conn, dist.WorkerOptions{ID: *id, HeartbeatInterval: *heartbeat})
}
