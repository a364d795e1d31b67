package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestGetPromotes(t *testing.T) {
	c := New[string, int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now the most recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used b survived eviction")
	}
	if got := c.Keys(); !slices.Equal(got, []string{"c", "a"}) {
		t.Errorf("Keys = %v, want [c a]", got)
	}
}

func TestPeekKeepsRecency(t *testing.T) {
	c := New[string, int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	c.Put("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek promoted a past b")
	}
}

func TestEvictOrderAndCallback(t *testing.T) {
	var evicted []string
	c := New(3, func(k string, v int) {
		if want := int(k[0] - 'a'); v != want {
			t.Errorf("onEvict(%s, %d): value is not the key's", k, v)
		}
		evicted = append(evicted, k)
	})
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	c.Put("a", 0) // replace: a becomes most recent, nothing evicted
	if len(evicted) != 0 || c.Len() != 3 {
		t.Fatalf("replace evicted %v, len %d", evicted, c.Len())
	}
	for i, k := range []string{"d", "e", "f", "g"} {
		c.Put(k, 3+i)
	}
	if want := []string{"b", "c", "a", "d"}; !slices.Equal(evicted, want) {
		t.Errorf("evicted %v, want %v (least recent first, each once)", evicted, want)
	}
	if got := c.Keys(); !slices.Equal(got, []string{"g", "f", "e"}) {
		t.Errorf("Keys = %v, want [g f e]", got)
	}
	c.Delete("f")
	if _, ok := c.Get("f"); ok || c.Len() != 2 || len(evicted) != 4 {
		t.Errorf("Delete left f=%v len=%d or called onEvict (%v)", ok, c.Len(), evicted)
	}
}

func TestCapacityZeroHoldsNothing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		called := false
		c := New(capacity, func(string, int) { called = true })
		c.Put("k", 1)
		if _, ok := c.Get("k"); ok || c.Len() != 0 || len(c.Keys()) != 0 || called {
			t.Errorf("capacity %d held an entry or evicted one", capacity)
		}
	}
}

// TestConcurrentUse drives one cache from several goroutines; under
// -race it checks the locking, including an onEvict that shares state
// with other goroutines.
func TestConcurrentUse(t *testing.T) {
	var mu sync.Mutex
	evictions := 0
	c := New(16, func(string, int) {
		mu.Lock()
		evictions++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprint(g, "-", i%40)
				c.Put(k, i)
				c.Get(k)
				c.Peek(k)
				if i%7 == 0 {
					c.Delete(k)
				}
				_ = c.Keys()
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 || n != len(c.Keys()) {
		t.Errorf("Len = %d with %d keys, capacity 16", n, len(c.Keys()))
	}
	if evictions == 0 {
		t.Error("no evictions after 800 puts into 16 slots")
	}
}
