module taskprov/bench/e2e

go 1.22

require taskprov v0.0.0

replace taskprov => ../..
