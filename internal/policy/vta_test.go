package policy

import "testing"

func TestVTAInsertLookup(t *testing.T) {
	var v VTA
	v.Reset(4, 2)
	v.Insert(1, 0xabc, 7)
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	id, hit := v.Lookup(1, 0xabc)
	if !hit || id != 7 {
		t.Errorf("Lookup = (%d, %v), want (7, true)", id, hit)
	}
	// Lookup consumes the entry.
	if _, hit := v.Lookup(1, 0xabc); hit {
		t.Error("entry survived Lookup")
	}
	if v.Len() != 0 {
		t.Errorf("Len after consuming lookup = %d", v.Len())
	}
}

func TestVTAPeekDoesNotConsume(t *testing.T) {
	var v VTA
	v.Reset(4, 2)
	v.Insert(2, 0x123, 9)
	for i := 0; i < 3; i++ {
		id, hit := v.Peek(2, 0x123)
		if !hit || id != 9 {
			t.Fatalf("Peek #%d = (%d, %v)", i, id, hit)
		}
	}
	if v.Len() != 1 {
		t.Errorf("Peek consumed the entry")
	}
}

func TestVTAMissOnWrongSetOrTag(t *testing.T) {
	var v VTA
	v.Reset(4, 2)
	v.Insert(0, 0x1, 1)
	if _, hit := v.Lookup(1, 0x1); hit {
		t.Error("hit in the wrong set")
	}
	if _, hit := v.Lookup(0, 0x2); hit {
		t.Error("hit on the wrong tag")
	}
}

func TestVTALRUReplacement(t *testing.T) {
	var v VTA
	v.Reset(1, 2)
	v.Insert(0, 0xa, 1)
	v.Insert(0, 0xb, 2)
	v.Insert(0, 0xc, 3) // evicts 0xa (LRU)
	if _, hit := v.Peek(0, 0xa); hit {
		t.Error("LRU entry 0xa survived")
	}
	for _, tag := range []uint64{0xb, 0xc} {
		if _, hit := v.Peek(0, tag); !hit {
			t.Errorf("entry %#x missing", tag)
		}
	}
}

func TestVTAInsertRefreshesDuplicate(t *testing.T) {
	var v VTA
	v.Reset(1, 2)
	v.Insert(0, 0xa, 1)
	v.Insert(0, 0xb, 2)
	// Re-inserting 0xa updates its insn ID and recency instead of
	// duplicating; 0xb becomes LRU.
	v.Insert(0, 0xa, 9)
	if v.Len() != 2 {
		t.Fatalf("Len = %d after duplicate insert", v.Len())
	}
	id, hit := v.Peek(0, 0xa)
	if !hit || id != 9 {
		t.Errorf("refreshed entry = (%d, %v)", id, hit)
	}
	v.Insert(0, 0xc, 3)
	if _, hit := v.Peek(0, 0xb); hit {
		t.Error("0xb should have been the LRU victim after 0xa was refreshed")
	}
}

func TestVTAInsertPrefersInvalidWay(t *testing.T) {
	var v VTA
	v.Reset(1, 3)
	v.Insert(0, 0xa, 1)
	v.Lookup(0, 0xa) // consume, leaving a hole
	v.Insert(0, 0xb, 2)
	v.Insert(0, 0xc, 3)
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2 (holes reused)", v.Len())
	}
}
