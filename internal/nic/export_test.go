package nic

// pending reports queued frames.
func (f *rxFifo) pending() int { return len(f.frames) - f.head }

// PendingRX reports frames waiting in the RX FIFOs.
func (p *Port) PendingRX() int {
	total := 0
	for q := range p.fifos {
		total += p.fifos[q].pending()
	}
	return total
}

// PendingRXQueue reports frames waiting in one queue's FIFO.
func (p *Port) PendingRXQueue(q int) int { return p.fifos[q].pending() }

// QueueStalled reports one queue's stall state.
func (p *Port) QueueStalled(q int) bool {
	return q >= 0 && q < MaxQueues && p.stalled[q]
}
