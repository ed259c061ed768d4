package cache

// Scribble hands the pools one n-frame stamp array holding stamps and
// one n-frame record array filled with fill, as if a cache of n frames
// had left them behind, and returns both so a test can see whether a
// later cache took them.
func Scribble[F Frame](stamps []uint64, fill F) []F {
	frames := make([]F, len(stamps))
	for i := range frames {
		frames[i] = fill
	}
	stampPool.Put(stamps)
	framePool[F]().Put(frames)
	return frames
}
