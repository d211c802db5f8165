// The mesh's global tick loop and run API, mirroring engine.RunFor /
// RunUntil / RunKernels at the multi-device level.
package mesh

import (
	"fmt"

	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/link"
)

// NumDevices returns the number of GPUs in the mesh.
func (m *Mesh) NumDevices() int { return len(m.gpus) }

// GPU returns device d. Callers may launch kernels, preload memory, and
// inspect state through it, but must not step it — the mesh owns the clock.
func (m *Mesh) GPU(d int) *engine.GPU { return m.gpus[d] }

// Now returns the global cycle. Every device's engine.Now agrees with it.
func (m *Mesh) Now() uint64 { return m.now }

// Links returns the fabric links in canonical tick order, for stats and
// tests. Callers must not enqueue on or tick them.
func (m *Mesh) Links() []*link.Link { return m.links }

// Preload warms device d's L2 with the global address range
// [base, base+size) — base must lie in d's window.
func (m *Mesh) Preload(d int, base, size uint64) { m.gpus[d].Preload(base, size) }

// Launch places a kernel on device d at the current global cycle.
func (m *Mesh) Launch(d int, spec device.KernelSpec) (*engine.Kernel, error) {
	return m.gpus[d].Launch(spec)
}

// LaunchAt runs the whole mesh until global cycle at, then launches the
// kernel on device d — the multi-device analogue of engine.LaunchAt for
// modeling MPS-style launch skew.
func (m *Mesh) LaunchAt(d int, at uint64, spec device.KernelSpec) (*engine.Kernel, error) {
	if at < m.now {
		return nil, fmt.Errorf("mesh: launch cycle %d is in the past (now %d)", at, m.now)
	}
	m.RunFor(at - m.now)
	return m.Launch(d, spec)
}

// stepCycle advances the whole mesh one global cycle in the canonical
// order: per device ascending — deliver inbound packets, step the device,
// drain its outboxes onto first-hop links — then tick every fabric link in
// build order. Link deliveries land in inboxes and are consumed at the
// start of the destination's next cycle.
func (m *Mesh) stepCycle() {
	now := m.now
	for d, g := range m.gpus {
		if box := m.inbox[d]; len(box) != 0 {
			for _, p := range box {
				g.AcceptRemote(now, p)
			}
			m.inbox[d] = box[:0]
		}
		g.StepCycle()
		g.DrainRemote(m.drains[d])
	}
	for _, l := range m.links {
		l.Tick(now)
	}
	m.now++
}

// quiet reports whether no future cycle can do work: every device parked
// with empty outboxes, every fabric link drained, every inbox empty.
func (m *Mesh) quiet() bool {
	for _, g := range m.gpus {
		if !g.Quiet() {
			return false
		}
	}
	for _, l := range m.links {
		if !l.Idle() {
			return false
		}
	}
	for _, box := range m.inbox {
		if len(box) != 0 {
			return false
		}
	}
	return true
}

// skip fast-forwards the whole mesh n cycles: the caller must have
// established quiet(). Device clocks, fast-forward counters, and telemetry
// samplers all advance as if stepped.
func (m *Mesh) skip(n uint64) {
	for _, g := range m.gpus {
		g.SkipCycles(n)
	}
	m.now += n
}

// meterAdd records n global cycles: n per device on each device's own
// meter, and n per device on the base configuration's meter (the experiment
// runner's "cycles summed over every engine instance" convention).
func (m *Mesh) meterAdd(n uint64) {
	for _, c := range m.cfgs {
		c.Meter.Add(n)
	}
	m.meter.Add(n * uint64(len(m.gpus)))
}

// RunFor advances the mesh n global cycles, skipping quiet stretches in one
// jump exactly like engine.RunFor.
func (m *Mesh) RunFor(n uint64) {
	for i := uint64(0); i < n; i++ {
		if m.quiet() {
			m.skip(n - i)
			break
		}
		m.stepCycle()
	}
	m.meterAdd(n)
}

// RunUntil advances the mesh until cond returns true or the cycle budget is
// exhausted; it reports whether cond fired. Once the mesh is fully quiet
// with cond still false, the remaining budget is skipped in one jump and
// cond is evaluated once more at the final cycle (a quiet mesh's state is a
// pure function of the cycle number, so nothing in between could have
// fired it that does not fire at the end — cond should therefore not be a
// one-shot predicate of an intermediate cycle number).
func (m *Mesh) RunUntil(cond func() bool, budget uint64) bool {
	ran := uint64(0)
	defer func() { m.meterAdd(ran) }()
	for i := uint64(0); i < budget; i++ {
		if cond() {
			return true
		}
		if m.quiet() {
			skipped := budget - i
			m.skip(skipped)
			ran += skipped
			break
		}
		m.stepCycle()
		ran++
	}
	return cond()
}

// RunKernels runs until every kernel launched on every device has
// completed, with a global cycle budget to guard against livelock.
func (m *Mesh) RunKernels(budget uint64) error {
	ok := m.RunUntil(func() bool {
		for _, g := range m.gpus {
			for _, k := range g.Kernels() {
				if k.Running() {
					return false
				}
			}
		}
		return true
	}, budget)
	if !ok {
		return fmt.Errorf("mesh: kernels still running after %d-cycle budget", budget)
	}
	return nil
}

// Close is a no-op: a mesh holds no goroutines or other resources beyond
// its memory.
//
// Deprecated: there is nothing to release; callers may drop the call.
func (m *Mesh) Close() {}
