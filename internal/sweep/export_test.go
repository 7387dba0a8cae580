package sweep

// emptyRetired drops every network on the process's retired list, so that a
// test counts its fresh restores from zero.
func emptyRetired() {
	retired.mu.Lock()
	clear(retired.nets)
	retired.nets = retired.nets[:0]
	retired.mu.Unlock()
}

// retiredLen is the number of networks on the process's retired list.
func retiredLen() int {
	retired.mu.Lock()
	defer retired.mu.Unlock()
	return len(retired.nets)
}
