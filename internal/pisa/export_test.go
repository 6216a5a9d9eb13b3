package pisa

// Records expands the batch into its Mirror records, in frame order, for the
// external tests.
func (b *MirrorBatch) Records(fn func(Mirror)) { b.records(fn) }
