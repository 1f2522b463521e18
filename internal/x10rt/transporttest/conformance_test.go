package transporttest_test

import (
	"testing"
	"time"

	"apgas/internal/chaos"
	"apgas/internal/x10rt"
	"apgas/internal/x10rt/transporttest"
)

// singleObjectMesh adapts a transport whose one value serves every
// place (chan and any decorator over it).
func singleObjectMesh(places int, tr x10rt.Transport) *transporttest.Mesh {
	return &transporttest.Mesh{
		Places:   places,
		Endpoint: func(p int) x10rt.Transport { return tr },
		Register: tr.Register,
		Close:    tr.Close,
	}
}

// perPlaceMesh adapts one endpoint per place (a TCP mesh and any
// decorator over its endpoints).
func perPlaceMesh[T x10rt.Transport](eps []T) *transporttest.Mesh {
	return &transporttest.Mesh{
		Places:   len(eps),
		Endpoint: func(p int) x10rt.Transport { return eps[p] },
		Register: func(id x10rt.HandlerID, h x10rt.Handler) error {
			for _, tr := range eps {
				if err := tr.Register(id, h); err != nil {
					return err
				}
			}
			return nil
		},
		Close: func() error {
			var first error
			for _, tr := range eps {
				if err := tr.Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		},
	}
}

// closeAll registers the teardown of every endpoint with the test.
func closeAll[T x10rt.Transport](t *testing.T, eps []T) {
	t.Cleanup(func() {
		for _, tr := range eps {
			tr.Close()
		}
	})
}

func chanFactory(t *testing.T, places int) *transporttest.Mesh {
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

// tcpMesh builds a loopback TCP mesh, plain or with the v4 binary codec
// negotiated on every connection.
func tcpMesh(t *testing.T, places int, codec bool) []*x10rt.TCPTransport {
	newMesh := x10rt.NewLocalTCPMesh
	if codec {
		newMesh = x10rt.NewLocalCodecTCPMesh
	}
	mesh, err := newMesh(places)
	if err != nil {
		t.Fatal(err)
	}
	closeAll(t, mesh)
	return mesh
}

func tcpFactory(t *testing.T, places int) *transporttest.Mesh {
	return perPlaceMesh(tcpMesh(t, places, false))
}

// codecTCPFactory is the TCP mesh with the v4 binary codec negotiated on
// every connection: the same conformance battery must hold bit-for-bit
// when frames carry type-table handshakes and codec payloads.
func codecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return perPlaceMesh(tcpMesh(t, places, true))
}

func countingFactory(t *testing.T, places int) *transporttest.Mesh {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	tr := x10rt.NewCountingTransport(inner)
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

var testBatchOptions = x10rt.BatchOptions{MaxDelay: 100 * time.Microsecond, MaxFrames: 16}

func batchingFactory(t *testing.T, places int) *transporttest.Mesh {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	tr := x10rt.NewBatchingTransport(inner, testBatchOptions)
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

// batchedTCP stacks the batching wrapper over each endpoint of a TCP
// mesh, exercising the SendBatch fast path.
func batchedTCP(t *testing.T, places int, codec bool) *transporttest.Mesh {
	mesh := tcpMesh(t, places, codec)
	wrapped := make([]*x10rt.BatchingTransport, places)
	for p, tr := range mesh {
		wrapped[p] = x10rt.NewBatchingTransport(tr, testBatchOptions)
	}
	closeAll(t, wrapped)
	return perPlaceMesh(wrapped)
}

func batchingTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return batchedTCP(t, places, false)
}

// batchingCodecTCPFactory: coalesced v4 frames with per-connection type
// tables.
func batchingCodecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	return batchedTCP(t, places, true)
}

func chaosFactory(t *testing.T, places int) *transporttest.Mesh {
	inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
	if err != nil {
		t.Fatal(err)
	}
	// Zero fault probabilities: the wrapper's plumbing (link walk,
	// virtual clock, hold machinery) is in the path, the faults are
	// not, so the base contract must hold exactly.
	tr := chaos.Wrap(inner, chaos.Options{Seed: 1})
	t.Cleanup(func() { tr.Close() })
	return singleObjectMesh(places, tr)
}

// chaosCodecTCPFactory wraps the codec TCP mesh in the chaos decorator
// (zero fault probabilities): one-sided and codec frames must pass
// through the fault plumbing untouched and without consuming fault-
// stream sequence numbers.
func chaosCodecTCPFactory(t *testing.T, places int) *transporttest.Mesh {
	mesh := tcpMesh(t, places, true)
	wrapped := make([]*chaos.Transport, places)
	for p, tr := range mesh {
		wrapped[p] = chaos.Wrap(tr, chaos.Options{Seed: 1})
	}
	closeAll(t, wrapped)
	return perPlaceMesh(wrapped)
}

func TestConformanceChan(t *testing.T)     { transporttest.TestTransport(t, chanFactory) }
func TestConformanceTCP(t *testing.T)      { transporttest.TestTransport(t, tcpFactory) }
func TestConformanceCounting(t *testing.T) { transporttest.TestTransport(t, countingFactory) }
func TestConformanceBatching(t *testing.T) { transporttest.TestTransport(t, batchingFactory) }
func TestConformanceBatchingTCP(t *testing.T) {
	transporttest.TestTransport(t, batchingTCPFactory)
}
func TestConformanceChaos(t *testing.T)    { transporttest.TestTransport(t, chaosFactory) }
func TestConformanceCodecTCP(t *testing.T) { transporttest.TestTransport(t, codecTCPFactory) }
func TestConformanceBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransport(t, batchingCodecTCPFactory)
}
func TestConformanceChaosCodecTCP(t *testing.T) {
	transporttest.TestTransport(t, chaosCodecTCPFactory)
}

// The death battery runs against every transport shape: after KillPlace
// the sends fail fast and typed, frames are never duplicated, and death
// notifications fire exactly once per survivor.
func TestDeathChan(t *testing.T)     { transporttest.TestTransportDeath(t, chanFactory) }
func TestDeathTCP(t *testing.T)      { transporttest.TestTransportDeath(t, tcpFactory) }
func TestDeathCounting(t *testing.T) { transporttest.TestTransportDeath(t, countingFactory) }
func TestDeathBatching(t *testing.T) { transporttest.TestTransportDeath(t, batchingFactory) }
func TestDeathBatchingTCP(t *testing.T) {
	transporttest.TestTransportDeath(t, batchingTCPFactory)
}
func TestDeathChaos(t *testing.T)    { transporttest.TestTransportDeath(t, chaosFactory) }
func TestDeathCodecTCP(t *testing.T) { transporttest.TestTransportDeath(t, codecTCPFactory) }
func TestDeathBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransportDeath(t, batchingCodecTCPFactory)
}
func TestDeathChaosCodecTCP(t *testing.T) {
	transporttest.TestTransportDeath(t, chaosCodecTCPFactory)
}

// The one-sided battery runs against every transport shape as well.
func TestOneSidedChan(t *testing.T)     { transporttest.TestTransportOneSided(t, chanFactory) }
func TestOneSidedTCP(t *testing.T)      { transporttest.TestTransportOneSided(t, tcpFactory) }
func TestOneSidedCodecTCP(t *testing.T) { transporttest.TestTransportOneSided(t, codecTCPFactory) }
func TestOneSidedCounting(t *testing.T) { transporttest.TestTransportOneSided(t, countingFactory) }
func TestOneSidedBatching(t *testing.T) { transporttest.TestTransportOneSided(t, batchingFactory) }
func TestOneSidedBatchingTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, batchingTCPFactory)
}
func TestOneSidedBatchingCodecTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, batchingCodecTCPFactory)
}
func TestOneSidedChaos(t *testing.T) { transporttest.TestTransportOneSided(t, chaosFactory) }
func TestOneSidedChaosCodecTCP(t *testing.T) {
	transporttest.TestTransportOneSided(t, chaosCodecTCPFactory)
}

// The forwarding check runs on the decorators: everything attached to
// the outermost transport must reach the one beneath.
func TestForwardingCounting(t *testing.T) {
	transporttest.TestTransportForwarding(t, countingFactory)
}
func TestForwardingBatching(t *testing.T) {
	transporttest.TestTransportForwarding(t, batchingFactory)
}
func TestForwardingChaos(t *testing.T) { transporttest.TestTransportForwarding(t, chaosFactory) }
func TestForwardingChaosCodecTCP(t *testing.T) {
	transporttest.TestTransportForwarding(t, chaosCodecTCPFactory)
}
