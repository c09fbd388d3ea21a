package rdmarpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

type rig struct {
	cl      *cluster.Cluster
	daemons map[string]*core.Daemon
	srv     *Server
	srvCont *runc.Container
}

func newRig(t *testing.T) *rig {
	t.Helper()
	names := []string{"server", "client", "spare"}
	cl := cluster.New(cluster.Config{Seed: 14}, names...)
	r := &rig{cl: cl, daemons: map[string]*core.Daemon{}}
	for _, n := range names {
		r.daemons[n] = core.NewDaemon(cl.Host(n))
	}
	r.srv = NewServer(cl.Sched, "svc")
	r.srv.Handle("echo", func(b []byte) []byte { return b })
	r.srv.Handle("sum", func(b []byte) []byte {
		var sum byte
		for _, v := range b {
			sum += v
		}
		return []byte{sum}
	})
	r.srvCont = runc.NewContainer(cl.Host("server"), "rpc")
	r.srvCont.Start(func(p *task.Process) { r.srv.Run(p, r.daemons["server"]) })
	return r
}

func TestEchoAndDispatch(t *testing.T) {
	r := newRig(t)
	done := false
	r.cl.Sched.Go("client", func() {
		r.srv.WaitReady()
		c, err := Dial(task.New(r.cl.Sched, "cp"), r.daemons["client"], "server", "svc")
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := c.Call("echo", []byte("ping"))
		if err != nil || !bytes.Equal(resp, []byte("ping")) {
			t.Errorf("echo = %q, %v", resp, err)
		}
		resp, err = c.Call("sum", []byte{1, 2, 3})
		if err != nil || len(resp) != 1 || resp[0] != 6 {
			t.Errorf("sum = %v, %v", resp, err)
		}
		resp, err = c.Call("missing", nil)
		if err != nil || !bytes.Contains(resp, []byte("no such method")) {
			t.Errorf("missing method = %q, %v", resp, err)
		}
		done = true
	})
	r.cl.Sched.RunFor(30 * time.Second)
	if !done {
		t.Fatal("client did not finish")
	}
	r.srv.Stop()
}

func TestManySequentialCalls(t *testing.T) {
	r := newRig(t)
	done := false
	r.cl.Sched.Go("client", func() {
		r.srv.WaitReady()
		c, err := Dial(task.New(r.cl.Sched, "cp"), r.daemons["client"], "server", "svc")
		if err != nil {
			t.Error(err)
			return
		}
		// More calls than the credit window: replenishment must hold up.
		for i := 0; i < 5*window; i++ {
			msg := []byte(fmt.Sprintf("call-%d", i))
			resp, err := c.Call("echo", msg)
			if err != nil || !bytes.Equal(resp, msg) {
				t.Errorf("call %d: %q, %v", i, resp, err)
				return
			}
		}
		done = true
	})
	r.cl.Sched.RunFor(time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
	r.srv.Stop()
}

func TestRPCServerMigration(t *testing.T) {
	r := newRig(t)
	done := false
	migrated := false
	r.cl.Sched.Go("client", func() {
		r.srv.WaitReady()
		c, err := Dial(task.New(r.cl.Sched, "cp"), r.daemons["client"], "server", "svc")
		if err != nil {
			t.Error(err)
			return
		}
		calls := 0
		for !migrated {
			msg := []byte(fmt.Sprintf("m-%d", calls))
			resp, err := c.Call("echo", msg)
			if err != nil {
				t.Errorf("call during migration: %v", err)
				return
			}
			if !bytes.Equal(resp, msg) {
				t.Errorf("response mismatch during migration: %q vs %q", resp, msg)
				return
			}
			calls++
			r.cl.Sched.Sleep(time.Millisecond)
		}
		// Post-migration calls hit the server on its new host.
		resp, err := c.Call("sum", []byte{40, 2})
		if err != nil || resp[0] != 42 {
			t.Errorf("post-migration sum = %v, %v", resp, err)
		}
		if calls == 0 {
			t.Error("no calls overlapped the migration window")
		}
		done = true
	})
	r.cl.Sched.Go("operator", func() {
		r.srv.WaitReady()
		r.cl.Sched.Sleep(10 * time.Millisecond)
		m := &runc.Migrator{C: r.srvCont, Dst: r.cl.Host("spare"),
			Plug: core.NewPlugin(r.daemons["server"], r.daemons["spare"]),
			Opts: runc.DefaultMigrateOptions()}
		if _, err := m.Migrate(); err != nil {
			t.Errorf("migration: %v", err)
		}
		migrated = true
	})
	r.cl.Sched.RunFor(2 * time.Minute)
	if !done {
		t.Fatal("client did not finish")
	}
	if r.srv.Sess.Node() != "spare" {
		t.Fatalf("server on %s", r.srv.Sess.Node())
	}
}

// TestConcurrentCallsAcrossFreeze runs two callers on one client while
// the client process is frozen and thawed under them. Calls park at the
// freeze gate in their posts and polls, each polls completions that
// belong to the other, and the last response of one caller is usually
// polled by the other; every response must still reach its own caller
// exactly once, with its own bytes.
func TestConcurrentCallsAcrossFreeze(t *testing.T) {
	r := newRig(t)
	const callers, calls = 2, 200
	finished := 0
	cp := task.New(r.cl.Sched, "cp")
	var c *Client
	dialed := sim.NewCond(r.cl.Sched, "dialed")
	r.cl.Sched.Go("dial", func() {
		r.srv.WaitReady()
		var err error
		if c, err = Dial(cp, r.daemons["client"], "server", "svc"); err != nil {
			t.Error(err)
		}
		dialed.Broadcast()
	})
	for k := 0; k < callers; k++ {
		k := k
		r.cl.Sched.Go(fmt.Sprintf("caller-%d", k), func() {
			for c == nil {
				dialed.Wait()
			}
			for i := 0; i < calls; i++ {
				msg := []byte(fmt.Sprintf("caller-%d-call-%d", k, i))
				resp, err := c.Call("echo", msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("caller %d call %d = %q, %v", k, i, resp, err)
					return
				}
			}
			finished++
		})
	}
	r.cl.Sched.Go("freezer", func() {
		for c == nil {
			dialed.Wait()
		}
		for finished < callers {
			r.cl.Sched.Sleep(7 * time.Microsecond)
			cp.Freeze()
			r.cl.Sched.Sleep(5 * time.Microsecond)
			cp.Thaw()
		}
	})
	r.cl.Sched.RunFor(30 * time.Second)
	if finished != callers {
		t.Fatalf("%d of %d callers finished", finished, callers)
	}
	if len(c.responses) != 0 {
		t.Errorf("%d responses were never claimed", len(c.responses))
	}
	r.srv.Stop()
}
