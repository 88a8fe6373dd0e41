module memif/benchmark

go 1.22

require memif v0.0.0

replace memif => ../
