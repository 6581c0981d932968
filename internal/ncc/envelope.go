package ncc

import "unsafe"

// payloadKind discriminates the inline payload fast paths from boxed
// payloads. The dominant one- and two-word payloads travel as inline machine
// words, wider word payloads through per-node word arenas; any other Payload
// implementation stays behind the interface with its width cached once at
// Send time.
type payloadKind uint8

const (
	kindBoxed  payloadKind = iota // payload held in the boxed interface
	kindWord                      // one inline word in a
	kindWords2                    // two inline words in a, b
	kindWords                     // 3+ words; a = offset into the sender's word arena
)

// envelope is a message in transit. Word and Words2 payloads are stored
// inline (no heap boxing); multi-word (3+) payloads sent through SendWords
// are represented by an offset into the sending node's word arena — the
// struct stays pointer-light and small, which matters because every message
// is copied through outbox and bucket slices each round. The engine resolves
// the offset against the sender's arena during delivery; envelopes never
// leave the engine. Larger boxed payloads keep their interface with the
// Words() result cached at Send time, so the width is computed exactly once
// per message no matter how many engine phases read it.
type envelope struct {
	From NodeID
	To   NodeID
	a, b uint64

	boxed Payload
	kind  payloadKind
	width int32
}

// envelopeBytes is the in-memory size of one envelope, used by the engine's
// provisioning heuristics.
const envelopeBytes = int(unsafe.Sizeof(envelope{}))

// Words reports the payload width in machine words, from the cached value —
// never by re-invoking Payload.Words on the delivery path.
func (e *envelope) Words() int {
	switch e.kind {
	case kindWord:
		return 1
	case kindWords2:
		return 2
	default:
		return int(e.width)
	}
}

// Received is a message delivered to a node at a round barrier. Like
// envelope, it stores Word/Words2 payloads inline. The ref field overlays
// the two mutually-exclusive indirect cases so the struct stays as small as
// the pre-arena layout: a boxed Payload interface (kindBoxed), or a *uint64
// to the first payload word in the receiver's word arena (kindWords —
// storing a pointer in an `any` never allocates). The steady-state delivery
// path performs no heap allocation per message.
type Received struct {
	From NodeID
	a, b uint64

	ref   any
	kind  payloadKind
	width int32
}

// received converts an in-transit envelope into its delivered form. For
// kindWords the engine's receive phase copies the payload words out of the
// sender's arena (recycled as soon as the sender resumes) into the
// receiver's and points ref at them.
func (e *envelope) received() Received {
	rc := Received{From: e.From, a: e.a, b: e.b, kind: e.kind, width: e.width}
	if e.boxed != nil {
		rc.ref = e.boxed
	}
	return rc
}

// words reassembles the arena-backed payload of a kindWords message.
func (m *Received) words() []uint64 {
	return unsafe.Slice(m.ref.(*uint64), m.width)
}

// Payload materializes the message content; inline payloads are re-boxed on
// demand. Type switches like `rc.Payload().(type)` work for every payload;
// use AsWord/AsWords2/AsWords on allocation-sensitive paths.
func (m *Received) Payload() Payload {
	switch m.kind {
	case kindWord:
		return Word(m.a)
	case kindWords2:
		return Words2{m.a, m.b}
	case kindWords:
		return WordsN(m.words())
	default:
		return m.ref.(Payload)
	}
}

// AsWord returns the payload as a Word without boxing, and whether the
// message carried exactly a Word.
func (m *Received) AsWord() (Word, bool) {
	if m.kind == kindWord {
		return Word(m.a), true
	}
	return 0, false
}

// AsWords2 returns the payload as a Words2 without boxing, and whether the
// message carried exactly a Words2.
func (m *Received) AsWords2() (Words2, bool) {
	if m.kind == kindWords2 {
		return Words2{m.a, m.b}, true
	}
	return Words2{}, false
}

// AsWords returns the payload words of a multi-word (3+) message without
// boxing, and whether the message carried one. The slice aliases the
// receiver's word arena and is only valid until the node's next EndRound,
// exactly like the inbox itself.
func (m *Received) AsWords() ([]uint64, bool) {
	if m.kind == kindWords {
		return m.words(), true
	}
	return nil, false
}
