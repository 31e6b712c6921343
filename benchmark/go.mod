module github.com/bravolock/bravo/benchmark

go 1.22

require github.com/bravolock/bravo v0.0.0

replace github.com/bravolock/bravo => ../
