package resume

// ReconstructWith is reconstruct, for the test that swaps in a reference open.
var ReconstructWith = reconstruct
