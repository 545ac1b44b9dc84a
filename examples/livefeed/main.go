// livefeed runs the detection pipeline over a real BGP session: a
// collector listens on localhost TCP, a victim's router connects,
// announces a blackholed /32 (RFC 7999 community + NO_EXPORT), probes
// the attack twice with the ON/OFF practice, and withdraws. The
// inference engine consumes the session through a LiveSource and
// reports the events — §10's near-real-time workflow end to end, over
// actual sockets and through the same Detector.Run call the batch
// replay uses.
//
//	go run ./examples/livefeed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"bgpblackholing"
)

func main() {
	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
	if err != nil {
		log.Fatal(err)
	}
	// The victim: an IXP member with the RFC 7999 service available.
	var victimAS bgpblackholing.ASN
	var victim netip.Prefix
	for _, x := range p.Topo.BlackholingIXPs() {
		victimAS = x.Members[0]
		b := p.Topo.AS(victimAS).Prefixes[0].Addr().As4()
		victim = netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 7, 7}), 32)
		break
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("collector listening on %s\n", ln.Addr())

	// Collector side: accept sessions and publish every update into the
	// live source.
	live := bgpblackholing.NewLiveSource()
	go func() {
		err := live.ServeBGP(ln, bgpblackholing.BGPServerConfig{
			ASN:           64900,
			BGPID:         netip.MustParseAddr("10.255.0.1"),
			HoldTime:      30 * time.Second,
			CollectorName: "live-rrc",
			Platform:      bgpblackholing.PlatformRIS,
			Logf: func(format string, args ...any) {
				fmt.Printf("collector: "+format+"\n", args...)
			},
		})
		if err != nil {
			log.Printf("collector listener failed: %v", err)
		}
	}()

	// Router side: connect and run two ON/OFF probing rounds, then hang
	// up — the listener closes, ServeBGP closes the source, Run drains.
	go func() {
		sess, err := bgpblackholing.DialBGP(ln.Addr().String(), bgpblackholing.BGPConfig{
			ASN: victimAS, BGPID: netip.MustParseAddr("10.0.0.9"), HoldTime: 30 * time.Second,
		})
		if err != nil {
			log.Fatalf("router handshake: %v", err)
		}
		defer ln.Close()
		defer sess.Close()
		for round := 0; round < 2; round++ {
			fmt.Printf("router: announcing blackhole for %s (round %d)\n", victim, round+1)
			if err := sess.SendUpdate(&bgpblackholing.Update{
				Announced:   []netip.Prefix{victim},
				Origin:      bgpblackholing.OriginIGP,
				Path:        bgpblackholing.NewPath(victimAS),
				NextHop:     netip.MustParseAddr("10.0.0.9"),
				Communities: []bgpblackholing.Community{bgpblackholing.CommunityBlackhole, bgpblackholing.CommunityNoExport},
			}); err != nil {
				log.Fatal(err)
			}
			time.Sleep(60 * time.Millisecond)
			fmt.Println("router: withdrawing (checking whether the attack stopped)")
			if err := sess.SendUpdate(&bgpblackholing.Update{
				Withdrawn: []netip.Prefix{victim},
			}); err != nil {
				log.Fatal(err)
			}
			time.Sleep(40 * time.Millisecond)
		}
	}()

	// The engine consumes the live feed through the standard Run call.
	// The victim's peer IP is in no IXP LAN here (direct session), so
	// detection rides on the §4.2 peer-ip check: stamp the peer IP into
	// the victim's IXP peering LAN, as a PCH collector at the exchange
	// would see it.
	x := p.Topo.IXPs[p.Topo.AS(victimAS).IXPs[0]]
	nUpdates := 0
	src := bgpblackholing.MapSource(live, func(el *bgpblackholing.Elem) *bgpblackholing.Elem {
		el.Update.PeerIP = x.MemberIP(victimAS)
		el.Update.PeerAS = victimAS
		nUpdates++
		return el
	})

	// Events print the moment they close — while the session is live.
	det := p.NewDetector()
	printed := make(chan struct{})
	sub := det.Subscribe()
	go func() {
		defer close(printed)
		for ev := range sub {
			fmt.Printf("  EVENT %s  %v  providers=%v\n",
				ev.Prefix, ev.Duration().Truncate(time.Millisecond), ev.Providers)
		}
	}()

	res, err := det.Run(context.Background(), src,
		bgpblackholing.WithFlushAt(time.Now().UTC().Add(time.Hour)))
	if err != nil {
		log.Fatal(err)
	}
	<-printed

	fmt.Printf("\nprocessed %d live updates\n", nUpdates)
	fmt.Printf("inferred %d blackholing events\n", len(res.Events))
	periods := bgpblackholing.Group(res.Events, bgpblackholing.DefaultGroupTimeout)
	fmt.Printf("grouped into %d period(s) — the ON/OFF probing practice\n", len(periods))
}
