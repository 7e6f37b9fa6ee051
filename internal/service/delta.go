package service

// Delta re-labeling: a client that already analyzed a program may submit
// its fingerprint plus region-level patches instead of the full source.
// The server resolves the request by applying the patches to the source
// the base registry holds for that fingerprint, then labels the resolved
// program through the one label path (label.go): a region whose analysis
// fingerprint (ir.RegionFingerprintOf — structure, procedure table,
// referenced dimensions, live-out bits) is unchanged reuses the base
// entry's already-rendered row; only regions the edit actually touched
// (directly, through a procedure, or through shifted inter-region
// liveness) are re-labeled. A delta response is therefore byte-identical
// to the full re-label by construction — the property the
// delta-equivalence tests pin.

import (
	"encoding/hex"
	"fmt"
	"strings"

	"refidem/internal/ir"
	"refidem/internal/lang"
)

// resolveRequest resolves the request's program: delta requests (Base
// set) compose the registered base source with the patches and also
// return the base's registry entry, whose rows the label reuses;
// everything else goes through the stateless resolveProgram. A base the
// registry no longer holds fails with ErrUnknownBase — the caller serves
// it as 404 and the client falls back to the full program.
func (s *Server) resolveRequest(req Request) (*ir.Program, *baseEntry, error) {
	if req.Base == "" {
		p, err := resolveProgram(req)
		return p, nil, err
	}
	s.metrics.deltaRequests.Add(1)
	if s.bases == nil {
		s.metrics.deltaUnknownBase.Add(1)
		return nil, nil, fmt.Errorf("%w: %s (delta serving disabled)", ErrUnknownBase, req.Base)
	}
	// The registry is keyed by the decoded fingerprint, so the label fast
	// path can check it without hex-encoding; a malformed fingerprint is
	// simply unknown.
	var fp ir.Fingerprint
	var base *baseEntry
	if len(req.Base) == hex.EncodedLen(len(fp)) {
		if _, err := hex.Decode(fp[:], []byte(req.Base)); err == nil {
			base = s.baseOf(fp)
		}
	}
	if base == nil {
		s.metrics.deltaUnknownBase.Add(1)
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownBase, req.Base)
	}
	composed, err := applyPatches(base.src, req.Patches)
	if err != nil {
		return nil, nil, err
	}
	p, err := lang.Parse(composed)
	return p, base, err
}

// baseOf returns the registry's entry for fp, or nil when the registry
// is off or does not hold fp.
func (s *Server) baseOf(fp ir.Fingerprint) *baseEntry {
	if s.bases == nil {
		return nil
	}
	e, _ := s.bases.Get(fp)
	return e
}

// registerBase makes a successfully served program addressable as a delta
// base: src is its canonical source, which admission formatted once for
// the fingerprint fp. A label task passes the region fingerprints and the
// rows its response was assembled from under its "deps" flag; a program
// registered without rows of that flag gets a new entry holding them next
// to the rows of the other flag it had. Otherwise a registered base just
// becomes the most recently used.
func (s *Server) registerBase(fp ir.Fingerprint, src string, deps bool, fps []ir.Fingerprint, rows []RegionLabeling) {
	if s.bases == nil {
		return
	}
	flag := flagIndex(deps)
	old, ok := s.bases.Get(fp)
	if ok && (rows == nil || old.rows[flag] != nil) {
		return
	}
	e := &baseEntry{src: src, fps: fps}
	if ok {
		e.rows = old.rows
	}
	e.rows[flag] = rows
	s.bases.Put(fp, e)
}

// reregisterBase restores the delta base of a full-program label answered
// from the response cache. A client's resend after an unknown-base 404 is
// such a hit, and its next delta must resolve; the program is re-resolved
// only when the registry has lost it.
func (s *Server) reregisterBase(req Request, fp ir.Fingerprint) {
	if s.bases == nil {
		return
	}
	if _, ok := s.bases.Get(fp); ok {
		return
	}
	if p, err := resolveProgram(req); err == nil {
		s.bases.Put(fp, &baseEntry{src: p.Format()})
	}
}

// regionBlock is one region's canonical source text.
type regionBlock struct {
	name string
	text string
}

// splitSource splits canonical program source (ir.Program.Format output)
// into the header (program, var and proc lines) and the region blocks in
// order. The canonical format opens each region with a column-0
// "region NAME ..." line and closes it with a column-0 "}" line; nothing
// inside a region sits at column 0.
func splitSource(src string) (header string, blocks []regionBlock) {
	first := len(src)
	rest := src
	for off := 0; ; {
		i := strings.Index(rest, "region ")
		if i < 0 {
			break
		}
		if off+i == 0 || src[off+i-1] == '\n' {
			first = off + i
			break
		}
		rest = rest[i+1:]
		off += i + 1
	}
	header = src[:first]
	body := src[first:]
	for len(body) > 0 {
		end := strings.Index(body, "\n}\n")
		if end < 0 {
			// Malformed tail (cannot happen for canonical sources); keep it
			// attached so the parser reports it.
			blocks = append(blocks, regionBlock{name: regionNameOf(body), text: body})
			break
		}
		block := body[:end+3]
		blocks = append(blocks, regionBlock{name: regionNameOf(block), text: block})
		body = body[end+3:]
	}
	return header, blocks
}

// regionNameOf extracts the region name from a region block's first line.
func regionNameOf(block string) string {
	line := block
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) >= 2 && fields[0] == "region" {
		return fields[1]
	}
	return ""
}

// applyPatches composes a delta request's program source: each patch
// replaces the base region of the same name, or appends when the base has
// none. The composed source goes through the ordinary parser, so a patch
// referencing undeclared variables or procedures fails exactly like a
// full program would.
func applyPatches(src string, patches []RegionPatch) (string, error) {
	header, blocks := splitSource(src)
	for _, p := range patches {
		if p.Region == "" {
			return "", fmt.Errorf("patch with empty region name")
		}
		text := p.Source
		if !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		if name := regionNameOf(text); name != p.Region {
			return "", fmt.Errorf("patch for region %q carries source for region %q", p.Region, name)
		}
		replaced := false
		for i := range blocks {
			if blocks[i].name == p.Region {
				blocks[i].text = text
				replaced = true
				break
			}
		}
		if !replaced {
			blocks = append(blocks, regionBlock{name: p.Region, text: text})
		}
	}
	var b strings.Builder
	b.WriteString(header)
	for _, blk := range blocks {
		b.WriteString(blk.text)
	}
	return b.String(), nil
}
