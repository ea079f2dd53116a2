package models

import (
	"reflect"
	"sync"
	"testing"

	"krisp/internal/kernels"
)

// TestSequenceOwnership pins the kernel-sequence ownership rule: Sequence
// hands every caller the recipe's one memoized slice, with cap == len so an
// append copies instead of writing into the shared array; Kernels hands out
// a private copy with the same contents.
func TestSequenceOwnership(t *testing.T) {
	m, _ := ByName("squeezenet")
	a, b := m.Sequence(8), m.Sequence(8)
	if &a[0] != &b[0] {
		t.Fatal("Sequence rebuilt the memoized slice")
	}
	if cap(a) != len(a) {
		t.Fatalf("shared sequence has cap %d, len %d", cap(a), len(a))
	}
	grown := append(a, a[0])
	if &grown[0] == &a[0] {
		t.Fatal("append wrote into the shared array")
	}
	own := m.Kernels(8)
	if !reflect.DeepEqual(own, a) {
		t.Fatal("Kernels differs from Sequence")
	}
	own[0].Name = "mutated"
	if m.Sequence(8)[0].Name == "mutated" {
		t.Fatal("mutating Kernels' slice reached the shared sequence")
	}
}

// TestSequenceIdentityIsTheRecipe guards against keying sequences by name:
// two Custom recipes under one name keep their own kernels.
func TestSequenceIdentityIsTheRecipe(t *testing.T) {
	sq, _ := ByName("squeezenet")
	custom := func(n int) Model {
		return Custom("same-name", 21, func(batch int) []kernels.Desc { return sq.Kernels(batch)[:n] })
	}
	short, long := custom(2), custom(20)
	if got := len(short.Sequence(8)); got != 2 {
		t.Fatalf("short recipe: %d kernels, want 2", got)
	}
	if got := len(long.Sequence(8)); got != 20 {
		t.Fatalf("long recipe: %d kernels, want 20", got)
	}
}

// TestSequenceConcurrentFirstUse builds one recipe's sequences from many
// goroutines at once (grid harnesses serve cells concurrently); under
// -race this covers the memo's lock, and every caller must get the same
// slice.
func TestSequenceConcurrentFirstUse(t *testing.T) {
	m := Custom("concurrent", 10, resnet152.recipe.build)
	const workers = 8
	got := make([][]kernels.Desc, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 1; b <= 16; b++ {
				if s := m.Sequence(b); b == 16 {
					got[w] = s
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &got[w][0] != &got[0][0] {
			t.Fatal("concurrent first use built more than one sequence")
		}
	}
}
