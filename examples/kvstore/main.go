// kvstore: an RDMA-native key-value store (internal/kvstore) whose
// SERVER is live-migrated while a client keeps reading, writing and
// holding a CMP_SWAP lock.
//
// Everything the client holds — the server's rkey, the remote base
// address, the lock it owns — survives the migration because MigrRDMA
// virtualizes the values and re-fetches the new physical ones after the
// switch (§3.3).
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"time"

	migrrdma "migrrdma"
	"migrrdma/internal/kvstore"
	"migrrdma/internal/task"
)

func main() {
	tb := migrrdma.NewTestbed(42, "server", "client", "spare")
	defer tb.Close()
	sched := tb.CL.Sched

	srv := kvstore.NewServer(sched, "store", 64)
	srvCont := migrrdma.NewContainer(tb, "server", "kv")
	srvCont.Start(func(p *migrrdma.Process) { srv.Run(p, tb.Daemons["server"]) })

	migrated, done := false, false
	sched.Go("client", func() {
		srv.WaitReady()
		c, err := kvstore.Dial(task.New(sched, "cli"), tb.Daemons["client"], "server", "store")
		if err != nil {
			panic(err)
		}
		c.Put(7, []byte("the answer"))
		got, _ := c.Get(7)
		fmt.Printf("GET slot 7 -> %q (server on %s)\n", got[:10], srv.Sess.Node())
		if ok, _ := c.TryLock(5, 99); !ok {
			panic("lock failed")
		}
		fmt.Println("holding CMP_SWAP lock on slot 5 across the migration …")
		reads := 0
		for !migrated {
			if v, err := c.Get(7); err != nil || string(v[:10]) != "the answer" {
				panic(fmt.Sprintf("read during migration: %q %v", v[:10], err))
			}
			reads++
			sched.Sleep(500 * time.Microsecond)
		}
		fmt.Printf("performed %d consistent READs while the server migrated\n", reads)
		if ok, _ := c.TryLock(5, 100); ok {
			panic("lock lost across migration")
		}
		c.Unlock(5, 99)
		c.Put(9, []byte("post-move"))
		got, _ = c.Get(9)
		fmt.Printf("PUT/GET slot 9 -> %q (server now on %s)\n", got[:9], srv.Sess.Node())
		done = true
	})

	err := tb.Run(migrrdma.Horizon, func() error {
		srv.WaitReady()
		sched.Sleep(10 * time.Millisecond)
		fmt.Println("operator: migrating kv server → spare ...")
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
	fmt.Println("lock, rkey and data all survived the live migration")
}
