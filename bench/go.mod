module bgpblackholing/bench

go 1.24.0

require bgpblackholing v0.0.0

replace bgpblackholing => ../
