package main

import "testing"

func TestParseShard(t *testing.T) {
	for _, c := range []struct {
		in            string
		shard, shards int
		ok            bool
	}{
		{"", 0, 1, true},
		{"0/1", 0, 1, true},
		{"1/2", 1, 2, true},
		{"1/2/3", 0, 0, false},
		{"0/2x", 0, 0, false},
		{"2/2", 0, 0, false},
		{"0/0", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"+1/2", 0, 0, false},
		{"1", 0, 0, false},
		{" 0/2", 0, 0, false},
	} {
		shard, shards, err := parseShard(c.in)
		if (err == nil) != c.ok || shard != c.shard || shards != c.shards {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", c.in, shard, shards, err, c.shard, c.shards, c.ok)
		}
	}
}
