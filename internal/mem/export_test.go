package mem

// SetPoolPoison turns poisoning of released buffers on or off (see
// pool.poison) and returns the previous setting.
func SetPoolPoison(on bool) (was bool) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	was, pool.poison = pool.poison, on
	return was
}

// ResetPool empties the recycler and zeroes its counters, so a test
// starts from what a fresh process has.
func ResetPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.pages.bufs, pool.words.bufs = nil, nil
	pool.PoolCounters = PoolCounters{}
}
