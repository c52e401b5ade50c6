package cv

// This file is the context plumbing for the kernel library: Kernel.Run
// (kernel.go) binds a context to the Ops and honors deadlines and
// cancellation at row granularity. The row loops of the convolution-style
// kernels (Gaussian, Sobel, median, resize) call rowTick once per row; when
// the bound context is done, the tick unwinds the kernel with a private
// panic that Run converts into a typed *resilience.DeadlineError carrying
// how many rows completed. Elementwise kernels (threshold, convert) are
// single-pass and run for microseconds per frame, so they check only at
// entry and at guard phase boundaries.
//
// The internal-panic pattern follows encoding/json: the cancellation path
// never escapes the package, and calls without a bound context are
// completely unaffected (o.ctx is nil, rowTick is a single predictable
// branch).

// ctxCanceled is the private unwind token raised by rowTick.
type ctxCanceled struct{ err error }

// rowTick is called once per completed row by the kernel row loops. With no
// bound context it is a few nil checks; with one, it counts the row and
// unwinds if the context is done. On a parallel band clone it additionally
// beats the band's watchdog heart (when a watchdog is attached) and polls
// the section's shared stop flag, so a sibling band's failure, a stall
// verdict or cancellation unwinds this band at its next row boundary.
func (o *Ops) rowTick() {
	if o.heart != nil {
		o.heart.Beat()
	}
	if o.stop != nil && o.stop.Load() {
		panic(bandStopped{})
	}
	if o.ctx == nil {
		return
	}
	o.ctxRows++
	if err := o.ctx.Err(); err != nil {
		panic(ctxCanceled{err})
	}
}

// flatTick is rowTick for the element-block loops of the flat kernels: it
// polls the stop flag and the context at block granularity but does not
// count rows (flat kernels report no partial-row progress, as before).
func (o *Ops) flatTick() {
	if o.heart != nil {
		o.heart.Beat()
	}
	if o.stop != nil && o.stop.Load() {
		panic(bandStopped{})
	}
	if o.ctx == nil {
		return
	}
	if err := o.ctx.Err(); err != nil {
		panic(ctxCanceled{err})
	}
}

// ctxCheck unwinds immediately when the bound context is done; guardedRun
// calls it at phase boundaries (before the referee, before each retry).
func (o *Ops) ctxCheck() {
	if o.ctx == nil {
		return
	}
	if err := o.ctx.Err(); err != nil {
		panic(ctxCanceled{err})
	}
}
