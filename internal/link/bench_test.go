package link

import (
	"testing"

	"gpunoc/internal/packet"
)

// BenchmarkTick times one saturated cycle of the three Volta mux shapes under
// round-robin: the reply-side GPC channel collecting from all 48 L2 slices
// at 8.72 flits/cycle, a crossbar port fed by 6 GPCs, and the 2:1 TPC
// request mux. Every delivered packet is re-enqueued on the input it came
// from, so every input stays backlogged and each cycle grants at full
// bandwidth.
func BenchmarkTick(b *testing.B) {
	shapes := []struct {
		name              string
		inputs, num, den  int
		latency, perInput int
		kind              packet.Kind
	}{
		{"reply-gpc-48", 48, 872, 100, 18, 8, packet.ReadReply},
		{"xbar-port-6", 6, 1, 1, 10, 8, packet.WriteReq},
		{"tpc-req-2", 2, 1, 1, 6, 16, packet.WriteReq},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			a := newRR(b, s.inputs)
			var l *Link
			l, err := New(s.name, s.inputs, s.num, s.den, s.latency, a, func(now uint64, p *packet.Packet) {
				l.Enqueue(now, p.SrcSM, p)
			})
			if err != nil {
				b.Fatal(err)
			}
			for in := 0; in < s.inputs; in++ {
				for j := 0; j < s.perInput; j++ {
					l.Enqueue(0, in, &packet.Packet{Kind: s.kind, SrcSM: in})
				}
			}
			now := uint64(0)
			for ; now < 1000; now++ { // reach the steady backlog
				l.Tick(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Tick(now)
				now++
			}
		})
	}
}
