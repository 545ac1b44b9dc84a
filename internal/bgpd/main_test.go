package bgpd

import (
	"testing"

	"bgpblackholing/internal/faultfs"
)

func TestMain(m *testing.M) { faultfs.LeakCheckMain(m) }
