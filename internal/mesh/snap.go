// Checkpoint support for the multi-GPU mesh: one versioned blob holds the
// global clock, every device's complete engine state, every fabric link,
// and the per-device delivery inboxes. The blob is keyed to the base
// configuration's hash — the per-device configurations derive from the base
// deterministically, so base plus device count identifies the whole mesh.
package mesh

import (
	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/packet"
	"gpunoc/internal/snap"
)

// Snapshot serializes the mesh's complete simulation state into a versioned
// binary blob bound to the base configuration hash. The same restrictions
// as engine.(*GPU).Snapshot apply per device: no event tracing, no
// closure-based programs. Snapshotting does not perturb the run.
func (m *Mesh) Snapshot() ([]byte, error) {
	for _, g := range m.gpus {
		if r := g.Probes(); r != nil && r.Tracer() != nil {
			return nil, engine.ErrTraceEnabled
		}
	}
	e := snap.NewEncoder()
	e.Mark("mesh")
	e.U64(m.now)
	e.Int(len(m.gpus))
	for _, g := range m.gpus {
		if err := g.EncodeState(e); err != nil {
			return nil, err
		}
	}
	e.Int(len(m.links))
	for _, l := range m.links {
		l.Snapshot(e)
	}
	e.Int(len(m.inbox))
	for _, box := range m.inbox {
		e.Int(len(box))
		for _, p := range box {
			packet.Encode(e, p)
		}
	}
	return e.Finish(m.baseHash), nil
}

// Restore builds an n-device mesh from base and loads a Snapshot blob into
// it. The base configuration must hash-match the snapshotting one and n
// must equal the snapshotted device count.
func Restore(base config.Config, n int, data []byte, opts engine.RestoreOptions) (*Mesh, error) {
	m, err := New(base, n)
	if err != nil {
		return nil, err
	}
	d, err := snap.NewDecoder(data, m.baseHash)
	if err != nil {
		return nil, err
	}
	if err := m.restoreState(d, opts); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// restoreState loads the sections written by Snapshot.
func (m *Mesh) restoreState(d *snap.Decoder, opts engine.RestoreOptions) error {
	d.Expect("mesh")
	m.now = d.U64()
	if n := d.Int(); d.Err() == nil && n != len(m.gpus) {
		return snap.Corruptf("snapshot holds %d devices, mesh has %d", n, len(m.gpus))
	}
	for _, g := range m.gpus {
		if err := g.RestoreState(d, opts); err != nil {
			return err
		}
	}
	if n := d.Int(); d.Err() == nil && n != len(m.links) {
		return snap.Corruptf("snapshot holds %d fabric links, mesh has %d", n, len(m.links))
	}
	for _, l := range m.links {
		if err := l.Restore(d); err != nil {
			return err
		}
	}
	if n := d.Int(); d.Err() == nil && n != len(m.inbox) {
		return snap.Corruptf("snapshot holds %d inboxes, mesh has %d", n, len(m.inbox))
	}
	for i := range m.inbox {
		m.inbox[i] = m.inbox[i][:0]
		c := d.Len()
		for j := 0; j < c; j++ {
			m.inbox[i] = append(m.inbox[i], packet.Decode(d))
		}
	}
	return d.Err()
}
