package opt

// Candidates exposes the grid-enumerated candidate lists to the external
// differential tests.
var Candidates = candidates
