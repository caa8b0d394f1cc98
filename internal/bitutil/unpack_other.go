//go:build !amd64 && !arm64

package bitutil

// decodeFast decodes nothing on architectures without the unaligned-load
// kernel (unpack_fast.go): the portable kernel decodes every element.
func decodeFast(words []uint64, w uint, lo int, dst []uint64, add uint64) int {
	return 0
}
