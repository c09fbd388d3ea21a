package criu

import (
	"testing"

	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// dumped keeps the benchmark's result live.
var dumped []PageRec

// BenchmarkDumpPages reads a batch of 64 written pages, each with bytes
// of its own: from a running process, which copies them into a slab,
// and from a frozen one, which shares them.
func BenchmarkDumpPages(b *testing.B) {
	const batch = 64
	for _, frozen := range []bool{false, true} {
		name := "running"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			s := sim.New(1)
			defer s.Close()
			tool, _ := newTool(s)
			p := task.New(s, "p")
			addrs := make([]mem.Addr, batch)
			s.Go("bench", func() {
				p.AS.Map(0x1000, batch*mem.PageSize, "heap")
				for i := range addrs {
					addrs[i] = mem.Addr(0x1000 + i*mem.PageSize)
					p.AS.Write(addrs[i], []byte{byte(1 + i)})
				}
				if frozen {
					p.Freeze()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dumped = tool.DumpPages(p, addrs)
				}
			})
			s.Run()
		})
	}
}
