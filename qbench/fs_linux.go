package main

import "syscall"

// fsType names the filesystem holding dir, for the environment record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "unknown"
}

// flushFS writes every dirty page back, so that data an earlier process
// left in the page cache is not flushed by this run's fsyncs.
func flushFS() { syscall.Sync() }
