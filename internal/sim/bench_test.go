package sim

// Engine microbenchmarks tracking the allocation-lean hot path. All report
// allocs/op. BENCH_PR2.json records the seed-to-PR2 numbers; the engine's
// zero-alloc guarantees are asserted by the tests in engine_test.go.
//
// BenchmarkEngineScheduleAndRun (engine_test.go) keeps the seed-era shape —
// a fresh engine per iteration — so numbers stay comparable across the
// engine rewrite. The benchmarks here exercise the steady state a long
// simulation actually lives in: a warm engine whose heap and free list sit
// at their high-water marks.

import "testing"

// BenchmarkAtRun measures the schedule-then-fire cycle on a warm engine:
// batches of events are scheduled and drained, so every At is served from
// the free list.
func BenchmarkAtRun(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 1024; i++ { // reach the steady-state high-water mark
		e.After(Duration(i%97+1), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%97+1), fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkCancelReschedule measures the control-plane operations: each
// iteration schedules an event, moves it twice, cancels it, and lets the
// engine collect the tombstones.
func BenchmarkCancelReschedule(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(10, fn)
		ev = e.Reschedule(ev, e.Now()+20)
		ev = e.Reschedule(ev, e.Now()+5)
		e.Cancel(ev)
		if i%1024 == 1023 {
			e.RunFor(100) // collect lazy tombstones
		}
	}
	e.Run()
}

// BenchmarkHorizonProbe measures the event-horizon scheduler's per-node
// step: a NextEventTime probe followed by a bounded RunUntil on a warm engine —
// the per-node cost of proving "this node cannot act before the horizon".
// Must stay 0 allocs/op like the rest of the engine hot path.
func BenchmarkHorizonProbe(b *testing.B) {
	e := New()
	var rearm func()
	period := Duration(7)
	rearm = func() { e.After(period, rearm) }
	for i := 0; i < 64; i++ {
		e.After(Duration(i+1), rearm)
	}
	e.RunFor(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, ok := e.NextEventTime()
		if !ok {
			b.Fatal("warm engine drained")
		}
		e.RunUntil(at + 3)
	}
}

// BenchmarkChurn is timer-wheel-style steady-state churn: a fixed
// population of self-rearming timers (watchdogs, queue pumps) plus a
// rotating set of timers that are canceled and replaced before firing —
// the dominant event pattern of the serving simulations.
func BenchmarkChurn(b *testing.B) {
	const wheel = 256
	e := New()
	for i := 0; i < wheel; i++ {
		var rearm func()
		period := Duration(i%37 + 3)
		rearm = func() { e.After(period, rearm) }
		e.After(Duration(i+1), rearm)
	}
	// Rotating cancel-before-fire timers, one slot per wheel position.
	fn := func() {}
	slots := make([]*Event, wheel)
	for i := range slots {
		slots[i] = e.After(Duration(i%53+50), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % wheel
		e.Cancel(slots[s])
		slots[s] = e.After(Duration(s%53+50), fn)
		if s == wheel-1 {
			e.RunFor(10)
		}
	}
}
