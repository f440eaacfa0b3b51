package pfs

// Counts reports cumulative operation counts (reads, writes, opens).
func (fs *FileSystem) Counts() (reads, writes, opens int64) {
	return fs.reads, fs.writes, fs.opens
}
