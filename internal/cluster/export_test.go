package cluster

// InIndexBuilt reports whether l has built its in-index.
func InIndexBuilt(l *Layout) bool { return l.in.Load() != nil }
