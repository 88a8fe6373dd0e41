package bench

import (
	"fmt"

	"memif/internal/core"
	"memif/internal/hw"
	"memif/internal/linuxmig"
	"memif/internal/sim"
	"memif/internal/uapi"
)

// Figure 7 parameters: a sequence of eight migration requests, each
// covering sixteen 4 KB pages.
const (
	Fig7Requests    = 8
	Fig7PagesPerReq = 16
	fig7ReqBytes    = Fig7PagesPerReq * hw.Page4K
)

// Fig7Series is one line of Figure 7: when each of the eight requests'
// completion became known to the application, relative to the first
// submission.
type Fig7Series struct {
	Name     string
	Latency  []sim.Time // per request, submission-sequence order
	Syscalls int64
}

// Fig7Memif measures the memif line: all eight requests are submitted
// back-to-back through the asynchronous interface; each notification is
// timestamped as the application retrieves it. Only one syscall happens
// over the whole course.
func Fig7Memif() Fig7Series {
	m := newEvalMachine()
	as := m.NewAddressSpace(hw.Page4K)
	d := core.Open(m, as, core.DefaultOptions())
	s := Fig7Series{Name: "memif", Latency: make([]sim.Time, Fig7Requests)}
	runApp(m, func(p *sim.Proc) {
		defer d.Close()
		base := mmapOrDie(p, as, Fig7Requests*fig7ReqBytes, hw.NodeSlow, "w")
		start := p.Now()
		// All eight go out back-to-back; the application learns of each
		// completion as soon as it is posted, so timestamp the retrieval.
		window(p, d, Fig7Requests, Fig7Requests, func(i int) {
			submitMove(p, d, uapi.OpMigrate, base+int64(i)*fig7ReqBytes, 0,
				fig7ReqBytes, hw.NodeFast, uint64(i))
		}, func(r *uapi.MovReq) { s.Latency[r.Cookie] = p.Now() - start })
	})
	s.Syscalls = d.Stats().Syscalls
	return s
}

// Fig7Linux measures one baseline line: the same eight migrations issued
// through synchronous NUMA-migration syscalls with `batch` requests per
// syscall. Small batches favor latency but pay per-syscall overhead;
// large batches amortize the syscall but delay every notification to the
// end of its batch (Section 6.4).
func Fig7Linux(batch int) Fig7Series {
	m := newEvalMachine()
	as := m.NewAddressSpace(hw.Page4K)
	mg := linuxmig.New(m, as)
	s := Fig7Series{
		Name:    fmt.Sprintf("linux-batch%d", batch),
		Latency: make([]sim.Time, Fig7Requests),
	}
	runApp(m, func(p *sim.Proc) {
		var regions [][2]int64
		base := mmapOrDie(p, as, Fig7Requests*fig7ReqBytes, hw.NodeSlow, "w")
		for i := 0; i < Fig7Requests; i++ {
			regions = append(regions, [2]int64{base + int64(i)*fig7ReqBytes, fig7ReqBytes})
		}
		start := p.Now()
		err := mg.MigrateBatched(p, regions, hw.NodeFast, batch, func(i int, at sim.Time) {
			s.Latency[i] = at - start
		})
		if err != nil {
			panic(err)
		}
	})
	s.Syscalls = int64((Fig7Requests + batch - 1) / batch)
	return s
}

// Fig7 runs all four lines of the figure.
func Fig7() []Fig7Series {
	return []Fig7Series{
		Fig7Memif(),
		Fig7Linux(1),
		Fig7Linux(4),
		Fig7Linux(8),
	}
}
