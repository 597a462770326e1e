package store

// UseMmap is useMmap for the external tests, which clear it to drive
// the os.ReadAt loader.
var UseMmap = &useMmap
