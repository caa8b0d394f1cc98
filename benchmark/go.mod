module ahi/benchmark

go 1.23

require ahi v0.0.0

replace ahi => ../
