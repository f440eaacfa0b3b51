package resume

// ReconstructWith is reconstruct, for the test that swaps in a reference open.
var ReconstructWith = reconstruct

// EncodedMembers is how many task members the checkpoint's last write
// encoded.
func EncodedMembers(cp *Checkpoint) int { return cp.encoded }
