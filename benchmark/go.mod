module dynq/benchmark

go 1.22

require dynq v0.0.0

replace dynq => ../
