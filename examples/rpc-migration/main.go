// rpc-migration: an RPC server (internal/rdmarpc, SEND/RECV with
// credit-based receive rings) is live-migrated while a client issues a
// steady stream of calls. Requests that overlap the blackout are
// intercepted by MigrRDMA and complete after restoration — the client
// just sees one slow call.
//
//	go run ./examples/rpc-migration
package main

import (
	"fmt"
	"strconv"
	"time"

	migrrdma "migrrdma"
	"migrrdma/internal/rdmarpc"
	"migrrdma/internal/task"
)

func main() {
	tb := migrrdma.NewTestbed(99, "server", "client", "spare")
	defer tb.Close()
	sched := tb.CL.Sched

	srv := rdmarpc.NewServer(sched, "calc")
	srv.Handle("square", func(b []byte) []byte {
		n, _ := strconv.Atoi(string(b))
		return []byte(strconv.Itoa(n * n))
	})
	srvCont := migrrdma.NewContainer(tb, "server", "rpc")
	srvCont.Start(func(p *migrrdma.Process) { srv.Run(p, tb.Daemons["server"]) })

	migrated, done := false, false
	var slowest time.Duration
	sched.Go("client", func() {
		srv.WaitReady()
		c, err := rdmarpc.Dial(task.New(sched, "cli"), tb.Daemons["client"], "server", "calc")
		if err != nil {
			panic(err)
		}
		calls := 0
		for !migrated {
			start := sched.Now()
			resp, err := c.Call("square", []byte(strconv.Itoa(calls)))
			if err != nil {
				panic(err)
			}
			if lat := sched.Now() - start; lat > slowest {
				slowest = lat
			}
			want := strconv.Itoa(calls * calls)
			if string(resp) != want {
				panic(fmt.Sprintf("square(%d) = %s, want %s", calls, resp, want))
			}
			calls++
			sched.Sleep(time.Millisecond)
		}
		resp, _ := c.Call("square", []byte("12"))
		fmt.Printf("%d calls served across the migration; square(12)=%s on %s\n",
			calls, resp, srv.Sess.Node())
		fmt.Printf("slowest call: %v (the one that straddled the blackout)\n",
			slowest.Round(time.Millisecond))
		done = true
	})

	err := tb.Run(migrrdma.Horizon, func() error {
		srv.WaitReady()
		sched.Sleep(15 * time.Millisecond)
		fmt.Println("operator: migrating RPC server → spare ...")
		rep, err := tb.Migrate(srvCont, "server", "spare", migrrdma.DefaultMigrateOptions())
		if err != nil {
			return err
		}
		fmt.Printf("operator: done; service blackout %v\n", rep.ServiceBlackout.Round(time.Millisecond))
		migrated = true
		for !done {
			sched.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}
