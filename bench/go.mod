module harvest/bench

go 1.24

require harvest v0.0.0

replace harvest => ../
