package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// sseFrame is one server-sent event: the fields the /watch stream
// uses. Comment-only frames (": connected", ": heartbeat") never
// surface.
type sseFrame struct {
	ID    uint64
	Event string
	Data  string
}

// sseReader parses a text/event-stream body frame by frame.
type sseReader struct {
	br *bufio.Reader
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next frame that carries data, or the read error
// (io.EOF when the server closed the stream between frames).
func (s *sseReader) next() (sseFrame, error) {
	var f sseFrame
	var data []string
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return sseFrame{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if len(data) == 0 {
				f = sseFrame{} // comment-only frame
				continue
			}
			f.Data = strings.Join(data, "\n")
			return f, nil
		case strings.HasPrefix(line, ":"):
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "id":
				if id, err := strconv.ParseUint(value, 10, 64); err == nil {
					f.ID = id
				}
			case "event":
				f.Event = value
			case "data":
				data = append(data, value)
			}
		}
	}
}
