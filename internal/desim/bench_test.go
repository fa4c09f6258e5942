package desim

import (
	"fmt"
	"testing"
	"time"
)

var benchEnd time.Duration

// BenchmarkEngine measures the steady-state cost of one event: every
// fired event schedules one successor up to 1 ms ahead, so the queue
// holds the same number of events in flight throughout. serve and HPL
// run at one to three in flight; 64 and 4096 show how the cost grows at
// depths no caller reaches.
func BenchmarkEngine(b *testing.B) {
	for _, inflight := range []int{1, 3, 64, 4096} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			var e Engine
			left := b.N
			x := uint64(0x9e3779b97f4a7c15)
			var fire Handler
			fire = func(e *Engine) {
				if left == 0 {
					return
				}
				left--
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				e.After(time.Duration(x%1024)*time.Microsecond, fire)
			}
			for i := 0; i < inflight; i++ {
				e.At(time.Duration(i)*time.Microsecond, fire)
			}
			b.ReportAllocs()
			b.ResetTimer()
			benchEnd = e.Run()
		})
	}
}
