package exp

import "hybridmem/internal/sim"

// resetPool empties the machine pool, so a test that counts builds or
// hosts starts from no idle machine whatever ran before it.
func resetPool() {
	pool.Lock()
	defer pool.Unlock()
	pool.idle = nil
}

// onEmptyPool calls fn with the pool set aside, so every run of fn
// builds its machine fresh, and then puts the pool back as it was.
func onEmptyPool(fn func()) {
	pool.Lock()
	saved := pool.idle
	pool.idle = nil
	pool.Unlock()
	defer func() {
		pool.Lock()
		pool.idle = saved
		pool.Unlock()
	}()
	fn()
}

// idleMachines returns a snapshot of the pool, oldest first.
func idleMachines() []*machine {
	pool.Lock()
	defer pool.Unlock()
	return append([]*machine(nil), pool.idle...)
}

// idleHosts returns the set of hosts the pool's machines hold.
func idleHosts() map[*sim.Host]bool {
	hosts := map[*sim.Host]bool{}
	for _, m := range idleMachines() {
		hosts[m.host] = true
	}
	return hosts
}
