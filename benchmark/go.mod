module github.com/replobj/replobj/benchmark

go 1.24

require github.com/replobj/replobj v0.0.0

replace github.com/replobj/replobj => ../
