// Whole-engine checkpointing. Snapshot serializes every piece of simulation
// state — resident warps and their programs, link and slice queues, caches,
// MSHRs, DRAM banks, RNG positions, activity sets, remote outboxes, probe
// instruments, and the telemetry sampler — into one versioned snap blob
// keyed by the configuration hash. Restore builds a fresh GPU from the same
// configuration and loads the blob into it; the restored device then
// replays bit-identically to a run that was never interrupted.
package engine

import (
	"errors"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/snap"
)

// ErrTraceEnabled reports a snapshot attempt on an engine whose probe
// registry has event tracing attached: the bounded trace ring is a debugging
// aid, not simulation state, and is deliberately not serializable.
var ErrTraceEnabled = errors.New("engine: cannot snapshot with probe tracing enabled")

// RestoreOptions configures Restore.
type RestoreOptions struct {
	// Programs maps device.Checkpointable checkpoint ids to factories for
	// the resident warps' programs. The built-in device program types are
	// always available; entries here add to or override them. A factory may
	// capture the instances it returns — the CLI does, to read per-warp
	// clocks back after the run.
	Programs map[string]func() device.Checkpointable
}

// builtinPrograms returns factories for every checkpointable program type
// the device package ships.
func builtinPrograms() map[string]func() device.Checkpointable {
	return map[string]func() device.Checkpointable{
		"streamer":        func() device.Checkpointable { return &device.Streamer{} },
		"clock-reader":    func() device.Checkpointable { return &device.ClockReader{} },
		"compute-loop":    func() device.Checkpointable { return &device.ComputeLoop{} },
		"masked-streamer": func() device.Checkpointable { return &device.MaskedStreamer{} },
	}
}

// Snapshot serializes the engine's complete simulation state into a
// versioned binary blob bound to the configuration hash. It fails with
// ErrTraceEnabled when event tracing is attached and with a wrapped
// device.ErrNotCheckpointable when a resident warp runs a closure-based
// program. Snapshotting does not perturb the run — the engine may keep
// stepping afterwards and remains bit-identical to an unsnapshotted run.
func (g *GPU) Snapshot() ([]byte, error) {
	if g.cfg.Probes != nil && g.cfg.Probes.Tracer() != nil {
		return nil, ErrTraceEnabled
	}
	e := snap.NewEncoder()
	if err := g.EncodeState(e); err != nil {
		return nil, err
	}
	return e.Finish(g.cfg.Hash()), nil
}

// EncodeState appends the engine's state sections to an encoder the caller
// owns — the seam internal/mesh uses to pack several devices into one blob.
// Most callers want Snapshot.
func (g *GPU) EncodeState(e *snap.Encoder) error {
	e.Mark("engine")
	e.U64(g.now)
	e.Int(g.running)
	e.Int(len(g.kernels))
	for _, k := range g.kernels {
		e.Int(k.ID)
		e.String(k.Spec.Name)
		e.Int(k.Spec.Blocks)
		e.Int(k.Spec.WarpsPerBlock)
		e.Int(len(k.Blocks))
		for _, bp := range k.Blocks {
			e.Int(bp.Block)
			e.Int(bp.SM)
		}
		e.U64(k.LaunchedAt)
		e.U64(k.FinishedAt)
		e.Bool(k.done)
	}
	g.sched.Snapshot(e)
	e.Int(len(g.sms))
	for _, s := range g.sms {
		if err := s.Snapshot(e); err != nil {
			return err
		}
	}
	for i := range g.sms {
		e.Bool(g.smActive(i))
	}
	g.net.Snapshot(e)
	g.part.Snapshot(e)
	e.Bool(g.rmt != nil)
	if g.rmt != nil {
		encodeBoxes(e, g.rmt.reqOut)
		encodeBoxes(e, g.rmt.repOut)
	}
	probe.Marshal(e, g.cfg.Probes)
	g.tel.Snapshot(e)
	return nil
}

// Restore builds a GPU from cfg and loads a Snapshot blob into it. The
// configuration must hash-match the snapshotting one (observer and
// scheduling knobs — probes, telemetry, meter, ExhaustiveTick — may differ;
// everything else must agree), or ErrConfigMismatch surfaces.
func Restore(cfg config.Config, data []byte, opts RestoreOptions) (*GPU, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := snap.NewDecoder(data, g.cfg.Hash())
	if err != nil {
		return nil, err
	}
	if err := g.RestoreState(d, opts); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return g, nil
}

// RestoreState loads the engine state sections from a decoder the caller
// owns — the seam internal/mesh uses to unpack several devices from one
// blob. Most callers want Restore.
func (g *GPU) RestoreState(d *snap.Decoder, opts RestoreOptions) error {
	progs := builtinPrograms()
	for id, f := range opts.Programs {
		progs[id] = f
	}
	d.Expect("engine")
	g.now = d.U64()
	g.running = d.Int()
	nk := d.Len()
	g.kernels = make([]*Kernel, 0, nk)
	for i := 0; i < nk; i++ {
		k := &Kernel{}
		k.ID = d.Int()
		// Spec.New stays nil on a restored kernel: the factory closure is
		// not serializable, and resident warps already carry their programs.
		k.Spec.Name = d.String()
		k.Spec.Blocks = d.Int()
		k.Spec.WarpsPerBlock = d.Int()
		nb := d.Len()
		for j := 0; j < nb; j++ {
			var bp BlockPlacement
			bp.Block = d.Int()
			bp.SM = d.Int()
			k.Blocks = append(k.Blocks, bp)
		}
		k.LaunchedAt = d.U64()
		k.FinishedAt = d.U64()
		k.done = d.Bool()
		g.kernels = append(g.kernels, k)
	}
	if err := g.sched.Restore(d); err != nil {
		return err
	}
	if n := d.Int(); d.Err() == nil && n != len(g.sms) {
		return snap.Corruptf("snapshot holds %d SMs, device has %d", n, len(g.sms))
	}
	for _, s := range g.sms {
		if err := s.Restore(d, progs); err != nil {
			return err
		}
	}
	for i := range g.sms {
		if d.Bool() && g.smSet != nil {
			g.smSet.Wake(i)
		}
	}
	if err := g.net.Restore(d); err != nil {
		return err
	}
	if err := g.part.Restore(d); err != nil {
		return err
	}
	if d.Bool() {
		req := decodeBoxes(d)
		rep := decodeBoxes(d)
		if err := d.Err(); err != nil {
			return err
		}
		if g.rmt == nil {
			for _, box := range append(req, rep...) {
				if len(box) != 0 {
					return snap.Corruptf("snapshot holds in-flight cross-GPU packets but the device is not connected to a mesh")
				}
			}
		} else {
			if len(req) != len(g.rmt.reqOut) || len(rep) != len(g.rmt.repOut) {
				return snap.Corruptf("snapshot remote outbox shape %dx%d does not match device %dx%d",
					len(req), len(rep), len(g.rmt.reqOut), len(g.rmt.repOut))
			}
			g.rmt.reqOut = req
			g.rmt.repOut = rep
		}
	}
	if err := probe.Unmarshal(d, g.cfg.Probes); err != nil {
		return err
	}
	return g.tel.Restore(d)
}

// smActive reads SM i's scheduler activity; in exhaustive mode it derives
// the bit from Quiescent, which is exact because parking is only legal when
// ticking is a no-op.
func (g *GPU) smActive(i int) bool {
	if g.smSet == nil {
		return !g.sms[i].Quiescent()
	}
	return g.smSet.Active(i)
}

// encodeBoxes appends a remote outbox family (one packet list per GPC or
// per partition group).
func encodeBoxes(e *snap.Encoder, boxes [][]*packet.Packet) {
	e.Int(len(boxes))
	for _, box := range boxes {
		e.Int(len(box))
		for _, p := range box {
			packet.Encode(e, p)
		}
	}
}

// decodeBoxes reads a remote outbox family written by encodeBoxes.
func decodeBoxes(d *snap.Decoder) [][]*packet.Packet {
	n := d.Len()
	boxes := make([][]*packet.Packet, n)
	for i := 0; i < n; i++ {
		m := d.Len()
		for j := 0; j < m; j++ {
			boxes[i] = append(boxes[i], packet.Decode(d))
		}
	}
	return boxes
}
