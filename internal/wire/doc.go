// Package wire is the uhmd JSON API contract, shared by the single-node
// server (cmd/uhmd) and the fleet router (internal/router): the request and
// response types, the defaults an omitted request field selects, and the
// writers every JSON answer goes through (compact, exact Content-Length).
// Keeping them in one place means a router-synthesised answer and a
// backend's answer cannot drift in shape or bytes.
package wire
