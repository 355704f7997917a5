package wire

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"azureobs/internal/storage/storerr"
)

// xmlHeader opens every XML body the facade writes, byte-for-byte the 2009
// storage service prologue.
const xmlHeader = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"

var xmlEsc = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;",
)

func xmlEscapeTo(b *strings.Builder, s string) {
	// Replacer.WriteString on a strings.Builder cannot fail.
	xmlEsc.WriteString(b, s) //nolint:errcheck
}

// wireError is a facade-level failure (bad URI, malformed input) that never
// reached a storage service and so carries its own status and wire code.
type wireError struct {
	status int
	code   string
	msg    string
}

func (e *wireError) Error() string { return e.code + ": " + e.msg }

// errorParts maps any error to the (HTTP status, wire code, message) triple
// the envelope carries. Storage errors route through storerr.Class — the
// one table — so the facade cannot drift from the client library's view of
// an error. Foreign errors classify as InternalError/500.
func errorParts(err error) (status int, code, msg string) {
	var we *wireError
	if errors.As(err, &we) {
		return we.status, we.code, we.msg
	}
	var se *storerr.Error
	if errors.As(err, &se) {
		cl := storerr.Class(se.Code)
		return cl.Status, cl.Wire, se.Error()
	}
	return 500, string(storerr.CodeInternal), err.Error()
}

// synthErr builds a storage error carrying an arbitrary code — the echoerr
// control endpoint routes it through the same errorParts/Class path real
// failures take.
func synthErr(code string) error {
	return storerr.New(storerr.Code(code), "wire.echoerr", "synthesized "+code+" for envelope check")
}

// ErrorXML renders the classic storage error envelope. Exported so tests
// (and clients parsing responses) can pin the exact bytes.
func ErrorXML(code, msg string) string {
	var b strings.Builder
	b.WriteString(xmlHeader)
	b.WriteString("<Error><Code>")
	xmlEscapeTo(&b, code)
	b.WriteString("</Code><Message>")
	xmlEscapeTo(&b, msg)
	b.WriteString("</Message></Error>")
	return b.String()
}

func writeError(w http.ResponseWriter, err error) {
	status, code, msg := errorParts(err)
	writeErrorRaw(w, status, code, msg)
}

func writeErrorRaw(w http.ResponseWriter, status int, code, msg string) {
	body := ErrorXML(code, msg)
	h := w.Header()
	h["Content-Type"] = ctypeXML
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	h["X-Ms-Error-Code"] = []string{code}
	w.WriteHeader(status)
	io.WriteString(w, body) //nolint:errcheck
}
