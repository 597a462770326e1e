package main

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestRunRequiresConnect(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "-connect") {
		t.Fatalf("err = %v, want -connect requirement", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunServesUntilHangup dials a fake coordinator that accepts the
// connection and hangs up: the worker must exit cleanly (a coordinator
// EOF is a normal shutdown, not an error).  The fake hangs up with a
// half-close and drains the worker's Hello and heartbeats until the
// worker closes its end: closing outright with unread heartbeats in the
// receive buffer would make the kernel answer with a reset instead of
// the FIN this test means to deliver.
func TestRunServesUntilHangup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		defer func() { _ = recover() }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.(*net.TCPConn).CloseWrite()
		_, _ = io.Copy(io.Discard, conn)
	}()
	var out strings.Builder
	if err := run([]string{"-connect", ln.Addr().String(), "-heartbeat", "10ms"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunTimeout pins the -timeout wiring: against a coordinator that
// never speaks, the worker must give up when the deadline passes.
func TestRunTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		defer func() { _ = recover() }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(5 * time.Second)
	}()
	var out strings.Builder
	start := time.Now()
	err = run([]string{"-connect", ln.Addr().String(), "-timeout", "150ms"}, &out)
	if err == nil {
		t.Fatal("run returned nil against a silent coordinator")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
