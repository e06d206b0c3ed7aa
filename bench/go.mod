// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's `go build ./...`; its
// path is rooted at repro/ so it may import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
