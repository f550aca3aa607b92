package main

import "testing"

// TestExample runs the example end to end, so a misspelt prefetcher spec or
// workload name fails the test suite instead of printing wrong numbers.
func TestExample(t *testing.T) { main() }
