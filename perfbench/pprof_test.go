package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func msg() *pb { return &pb{} }

// TestAttributionCountsInlinedFrames hand-builds a profile whose only
// location holds two line entries: Processor.issue inlined into
// Processor.Step. The sample must count toward the issue stage even
// though no location of its own names issue.
func TestAttributionCountsInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		corePkg + "(*Processor).issue", corePkg + "(*Processor).Step",
		"clustersmt/internal/policy.(*Icount).Pick"}
	p := msg()
	p.bytes(1, msg().varint(1, 1).varint(2, 2).b) // samples/count
	p.bytes(1, msg().varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	// Sample 1: location 1 (issue inlined into Step), 30ms, packed fields.
	p.bytes(2, msg().bytes(1, []byte{1}).bytes(2, []byte{3, 0x80, 0x87, 0xa7, 0x0e}).b)
	// Sample 2: locations 2 then 3 (policy called from Step), 10ms, unpacked.
	p.bytes(2, msg().varint(1, 2).varint(1, 3).varint(2, 1).varint(2, 10_000_000).b)
	p.bytes(4, msg().varint(1, 1).bytes(4, msg().varint(1, 1).b).bytes(4, msg().varint(1, 2).b).b)
	p.bytes(4, msg().varint(1, 2).bytes(4, msg().varint(1, 3).b).b)
	p.bytes(4, msg().varint(1, 3).bytes(4, msg().varint(1, 2).b).b)
	p.bytes(5, msg().varint(1, 1).varint(2, 5).b)
	p.bytes(5, msg().varint(1, 2).varint(2, 6).b)
	p.bytes(5, msg().varint(1, 3).varint(2, 7).b)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(samples, profileRules)
	if v := got["core.stage.issue_s"]; v != 0.03 {
		t.Errorf("issue stage = %v s, want 0.03 (inlined frame)", v)
	}
	if v := got["core.policy_s"]; v != 0.01 {
		t.Errorf("policy = %v s, want 0.01", v)
	}
	if v := got["core.stage.rename_s"]; v != 0 {
		t.Errorf("rename stage = %v s, want 0", v)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestParsesRuntimeProfile decodes a profile the runtime itself wrote.
func TestParsesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(samples, []frameRule{{"spin", func(fn string) bool {
		return fn == "clustersmt/perfbench.spinForProfile"
	}}})
	if got["spin"] <= 0 {
		t.Errorf("no CPU attributed to spinForProfile in %d samples", len(samples))
	}
}
