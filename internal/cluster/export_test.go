package cluster

// ViewsBuilt reports whether l has built its per-machine views.
func ViewsBuilt(l *Layout) bool { return l.viewsBuilt.Load() }
