package userv6

import (
	"fmt"

	"userv6/internal/core"
	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
	"userv6/internal/stats"
)

// Fig4Lengths are the prefix lengths swept by Figure 4.
var Fig4Lengths = []int{32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 80, 96, 112, 128}

// Fig9Lengths are the prefix lengths compared in Figure 9 (plus IPv4).
var Fig9Lengths = []int{128, 96, 72, 68, 64, 56, 48, 44}

// Fig1 registers the daily IPv6 prevalence series for [from, to]
// (Figure 1). Only benign traffic counts, as in the paper's user and
// request random samples.
func (st *Study) Fig1(from, to simtime.Day) func() []core.DayShare {
	return st.prevalence(from, to).Daily
}

// Table1Result is the ASN prevalence table plus the §4.2 bands.
type Table1Result struct {
	Rows              []core.RatioRow
	ZeroShare         float64
	UnderTenShare     float64
	QualifyingASNs    int
	MinUsersThreshold int
}

// Table1 registers the ranking of ASNs by IPv6 user ratio over
// [from, to] (Table 1).
func (st *Study) Table1(from, to simtime.Day) func() Table1Result {
	prev, s := st.prevalence(from, to), st.sim
	return func() Table1Result {
		minUsers := max(s.Scenario.Users/150, 20)
		zero, under, total := prev.ASNShareBands(minUsers)
		rows := prev.TopASNs(minUsers, 10, s.World.ASNName)
		// Attribute each ASN to its operator's country.
		countryOf := make(map[netmodel.ASN]string, len(s.World.Networks()))
		for _, n := range s.World.Networks() {
			countryOf[n.ASN] = n.Country
		}
		for i := range rows {
			rows[i].Country = countryOf[rows[i].ASN]
		}
		return Table1Result{
			Rows:              rows,
			ZeroShare:         zero,
			UnderTenShare:     under,
			QualifyingASNs:    total,
			MinUsersThreshold: minUsers,
		}
	}
}

// Table2Result holds country IPv6 ratios for two comparison windows.
type Table2Result struct {
	January, April []core.RatioRow
	// Germany captures the lockdown shift (Appendix A.2).
	GermanyJan, GermanyApr float64
	GreeceJan, GreeceApr   float64
}

// Table2 registers the country IPv6 user ratios for the Jan 23-29 and
// Apr 13-19 weeks (Table 2 / Figure 12).
func (st *Study) Table2() func() Table2Result {
	jan := st.prevalence(simtime.JanWeekStart, simtime.JanWeekEnd)
	apr := st.prevalence(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd)
	return func() Table2Result {
		minUsers := max(st.sim.Scenario.Users/1000, 10)
		var r Table2Result
		r.January = jan.TopCountries(minUsers, 10)
		r.April = apr.TopCountries(minUsers, 10)
		r.GermanyJan, _ = jan.CountryRatio("DE")
		r.GermanyApr, _ = apr.CountryRatio("DE")
		r.GreeceJan, _ = jan.CountryRatio("GR")
		r.GreeceApr, _ = apr.CountryRatio("GR")
		return r
	}
}

// CountryRatios registers every qualifying country's IPv6 user ratio
// over the analysis week, descending — the data behind the Figure 12
// choropleth.
func (st *Study) CountryRatios() func() []core.RatioRow {
	prev := st.prevalence(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd)
	return func() []core.RatioRow { return prev.TopCountries(max(st.sim.Scenario.Users/1000, 10), 0) }
}

// ClientAddrPatterns registers the §4.4 transition-protocol and IID
// structure summary over the analysis week.
func (st *Study) ClientAddrPatterns() func() core.ClientAddrPatterns {
	return st.userCentric(benignPop, simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd).AddrPatterns
}

// AddrsPerUserResult holds Figure 2/3 histograms: distinct addresses per
// entity for one day and one week, per family.
type AddrsPerUserResult struct {
	DayV4, DayV6, WeekV4, WeekV6 *stats.IntHist
	Entities                     int
}

// Fig2 registers the benign addresses-per-user CDF inputs (Figure 2)
// over the analysis week, with the single-day cut on the week's last
// day.
func (st *Study) Fig2() func() AddrsPerUserResult { return st.addrsPerEntity(benignPop) }

// Fig3 registers the abusive-account equivalent (Figure 3).
func (st *Study) Fig3() func() AddrsPerUserResult { return st.addrsPerEntity(abusivePop) }

func (st *Study) addrsPerEntity(pop cohort) func() AddrsPerUserResult {
	from, to := AnalysisWeek()
	week, day := st.userCentric(pop, from, to), st.userCentric(pop, to, to)
	return func() AddrsPerUserResult {
		return AddrsPerUserResult{
			DayV4:    day.AddrsPerUser(netaddr.IPv4),
			DayV6:    day.AddrsPerUser(netaddr.IPv6),
			WeekV4:   week.AddrsPerUser(netaddr.IPv4),
			WeekV6:   week.AddrsPerUser(netaddr.IPv6),
			Entities: week.Users(),
		}
	}
}

// Fig4Result holds the prefix-span curves for users and abusive
// accounts.
type Fig4Result struct {
	Users, Abusive []core.SpanShare
}

// Fig4 registers the share of entities whose IPv6 addresses span 1/2/3
// prefixes at each length over the analysis week (Figure 4).
func (st *Study) Fig4() func() Fig4Result {
	from, to := AnalysisWeek()
	users, aas := st.userCentric(benignPop, from, to), st.userCentric(abusivePop, from, to)
	return func() Fig4Result {
		return Fig4Result{
			Users:   users.PrefixSpans(Fig4Lengths),
			Abusive: aas.PrefixSpans(Fig4Lengths),
		}
	}
}

// LifespanResult holds Figure 5/6 outputs for one population.
type LifespanResult struct {
	// AgeV4/AgeV6 are the pair-age histograms at address granularity;
	// MedianV4/MedianV6 the per-user median age histograms (Figure 5).
	AgeV4, AgeV6       *stats.IntHist
	MedianV4, MedianV6 *stats.IntHist
	// FreshV4/FreshV6 are Figure 6's per-length freshness curves.
	FreshV4, FreshV6 []core.FreshShare
}

// LifespanLengths are the prefix lengths Figure 6 sweeps.
var LifespanLengths = []int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128}

// Fig5And6 registers address and prefix lifespans over a 28-day
// lookback ending on the analysis week's last day, for benign users
// (abusive=false) or abusive accounts (abusive=true).
func (st *Study) Fig5And6(abusive bool) func() LifespanResult {
	pop := benignPop
	if abusive {
		pop = abusivePop
	}
	ls := st.lifespans(pop, simtime.AnalysisWeekEnd, 28, LifespanLengths...)
	return func() LifespanResult {
		return LifespanResult{
			AgeV4:    ls.AgeHist(netaddr.IPv4, 32),
			AgeV6:    ls.AgeHist(netaddr.IPv6, 128),
			MedianV4: ls.MedianAgePerUser(netaddr.IPv4, 32),
			MedianV6: ls.MedianAgePerUser(netaddr.IPv6, 128),
			FreshV4:  ls.FreshShares(netaddr.IPv4),
			FreshV6:  ls.FreshShares(netaddr.IPv6),
		}
	}
}

// IPCentricResult bundles the per-granularity population analyzers for
// Figures 7-10 and the outlier work. Keys are prefix lengths; V4 holds
// the IPv4 address analyzer.
type IPCentricResult struct {
	V4 *core.IPCentric
	V6 map[int]*core.IPCentric
	// DayV4/DayV6 are single-day views (first day of the window).
	DayV4, DayV6 *core.IPCentric
}

// IPCentricWeek registers the IP-centric analyzers over the analysis
// week at the Figure 9 lengths, reading both benign and abusive
// telemetry.
func (st *Study) IPCentricWeek() func() IPCentricResult {
	from, to := AnalysisWeek()
	ipc := func(fam netaddr.Family, length int, from, to simtime.Day) *core.IPCentric {
		mk := func() *core.IPCentric { return core.NewIPCentric(fam, length) }
		return register(st, fmt.Sprint("ipcentric", fam, length), bothPops, from, to, mk, (*core.IPCentric).Merge)
	}
	r := IPCentricResult{
		V4:    ipc(netaddr.IPv4, 32, from, to),
		V6:    make(map[int]*core.IPCentric, len(Fig9Lengths)),
		DayV4: ipc(netaddr.IPv4, 32, from, from),
		DayV6: ipc(netaddr.IPv6, 128, from, from),
	}
	for _, l := range Fig9Lengths {
		r.V6[l] = ipc(netaddr.IPv6, l, from, to)
	}
	return func() IPCentricResult { return r }
}

// OutlierResult summarizes RQ3: extreme users and extreme prefixes.
type OutlierResult struct {
	// Users with more than K addresses, per family, and the maxima.
	HeavyUserThreshold         int
	V4HeavyUsers, V6HeavyUsers int
	V4MaxAddrs, V6MaxAddrs     int
	// Addresses with more than K users, per family, and the maxima.
	HeavyAddrThreshold         int
	V4HeavyAddrs, V6HeavyAddrs int
	V4MaxUsers, V6MaxUsers     int
	V6Max64Users               int
	// Concentration of heavy IPv6 addresses (ASN / structured IIDs).
	V6Concentration core.HeavyConcentration
}

// Outliers registers the §5.1.3/§6.1.3 outlier summary over the
// analysis week. Thresholds scale with the population (the paper's
// absolute counts come from a 0.1% sample of a billion-user platform).
func (st *Study) Outliers() func() OutlierResult {
	from, to := AnalysisWeek()
	uc, week := st.userCentric(benignPop, from, to), st.IPCentricWeek()
	return func() OutlierResult {
		ipc := week()
		userThresh := 30
		addrThresh := max(st.sim.Scenario.Users/1500, 20)
		r := OutlierResult{
			HeavyUserThreshold: userThresh,
			HeavyAddrThreshold: addrThresh,
			V4HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv4, userThresh),
			V6HeavyUsers:       uc.UsersWithMoreThan(netaddr.IPv6, userThresh),
			V4HeavyAddrs:       ipc.V4.PrefixesWithMoreThan(addrThresh),
			V6HeavyAddrs:       ipc.V6[128].PrefixesWithMoreThan(addrThresh),
			V6Concentration:    ipc.V6[128].ConcentrationAbove(addrThresh, st.sim.World.ASNOf),
		}
		if tops := uc.TopUsersByAddrs(netaddr.IPv4, 1); len(tops) > 0 {
			r.V4MaxAddrs = tops[0].Count
		}
		if tops := uc.TopUsersByAddrs(netaddr.IPv6, 1); len(tops) > 0 {
			r.V6MaxAddrs = tops[0].Count
		}
		if tops := ipc.V4.TopPrefixes(1); len(tops) > 0 {
			r.V4MaxUsers = tops[0].Users
		}
		if tops := ipc.V6[128].TopPrefixes(1); len(tops) > 0 {
			r.V6MaxUsers = tops[0].Users
		}
		if tops := ipc.V6[64].TopPrefixes(1); len(tops) > 0 {
			r.V6Max64Users = tops[0].Users
		}
		return r
	}
}

// Fig11Granularity identifies one ROC curve of Figure 11.
type Fig11Granularity struct {
	Name   string
	Family netaddr.Family
	Length int
}

// Fig11Granularities returns the four granularities the paper plots.
func Fig11Granularities() []Fig11Granularity {
	return []Fig11Granularity{
		{Name: "/128", Family: netaddr.IPv6, Length: 128},
		{Name: "/64", Family: netaddr.IPv6, Length: 64},
		{Name: "/56", Family: netaddr.IPv6, Length: 56},
		{Name: "IPv4", Family: netaddr.IPv4, Length: 32},
	}
}

// Fig11Result maps granularity name to its ROC curve.
type Fig11Result struct {
	Curves map[string]*stats.ROC
	// DayN and DayN1 are the evaluation days used.
	DayN, DayN1 simtime.Day
}

// Fig11 registers the §7.1 actioning simulation: day n = Apr 18, day
// n+1 = Apr 19, sweeping DefaultThresholds at each granularity.
func (st *Study) Fig11() func() Fig11Result {
	dayN := simtime.AnalysisWeekEnd - 1
	acts := make([]*core.Actioning, 0, 4)
	for _, g := range Fig11Granularities() {
		mk := func() *core.Actioning { return core.NewActioning(g.Family, g.Length, dayN) }
		acts = append(acts, register(st, fmt.Sprint("actioning", g), bothPops, dayN, dayN+1, mk, (*core.Actioning).Merge))
	}
	return func() Fig11Result {
		r := Fig11Result{Curves: make(map[string]*stats.ROC, 4), DayN: dayN, DayN1: dayN + 1}
		for i, g := range Fig11Granularities() {
			r.Curves[g.Name] = acts[i].Curve(core.DefaultThresholds())
		}
		return r
	}
}

// Advise registers the full §7.2 policy advisor at the given FPR
// tolerance, deriving every input from the Figure 5, 7-10 and 11
// registrations.
func (st *Study) Advise(fprTolerance float64) func() core.Advice {
	fig11, week := st.Fig11(), st.IPCentricWeek()
	ls := st.lifespans(benignPop, simtime.AnalysisWeekEnd, 28, LifespanLengths...) // Figure 5's
	return func() core.Advice {
		roc, ipc, ageV6 := fig11(), week(), ls.AgeHist(netaddr.IPv6, 128)
		v6Users := make(map[int]*stats.IntHist, len(Fig9Lengths))
		v6Abusive := make(map[int]*stats.IntHist, len(Fig9Lengths))
		for l, ic := range ipc.V6 {
			v6Users[l] = ic.UsersPerPrefix()
			v6Abusive[l] = ic.AbusivePerAbusivePrefix()
		}
		freshV6 := 0.0
		if ageV6.N() > 0 {
			freshV6 = ageV6.CDFAt(0)
		}
		return core.Advise(core.AdvisorInputs{
			ROC128:             roc.Curves["/128"],
			ROC64:              roc.Curves["/64"],
			ROCV4:              roc.Curves["IPv4"],
			FPRTolerance:       fprTolerance,
			UsersPerV6Addr:     ipc.V6[128].UsersPerPrefix(),
			UsersPerV4Addr:     ipc.V4.UsersPerPrefix(),
			UsersPerV6Prefix:   v6Users,
			AbusivePerV6Prefix: v6Abusive,
			AbusivePerV4Addr:   ipc.V4.AbusivePerAbusivePrefix(),
			V6AddrFreshShare:   freshV6,
		})
	}
}

// ASNOf exposes routing attribution for downstream tools.
func (s *Sim) ASNOf(a netaddr.Addr) netmodel.ASN { return s.World.ASNOf(a) }
