module warp/benchmark

go 1.22

require warp v0.0.0

replace warp => ../
