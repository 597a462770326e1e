package hypergraph

import (
	"unicode"
	"unicode/utf8"
)

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Fields splits line around runs of white space exactly as
// bytes.Fields, and so strings.Fields on the same bytes, does: a byte
// below utf8.RuneSelf is looked up in an ASCII table, and from any
// other byte a rune is decoded and tested with unicode.IsSpace (an
// invalid encoding is one non-space byte).  The fields are subslices
// of line, capped at their length, appended to dst[:0]; a caller that
// passes each result back as the next dst splits every line of a file
// without allocating once dst has grown to the widest line.  The text
// and Matrix Market scanners both tokenize with it.
func Fields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1 // first byte of the field being read, -1 between fields
	for i := 0; i < len(line); {
		c, size := line[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:len(line):len(line)])
	}
	return dst
}
