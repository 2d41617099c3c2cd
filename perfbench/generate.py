"""Seeded input generator for the benchmark workloads.

Every file the pipeline reads is written here from a seed: the corpus
(JSONL or MediaWiki XML .bz2), the floodlist/emdat/dfo CSVs, the
indicators CSV, the gazetteer/kb/replay tables and config.ini. The only
other ingredients are data already in the repository: the country registry
and alias table, the bundled gazetteer and kb, and the citation URL
fixture. Synthetic placenames are built from syllables.

Besides the inputs, ``generate`` writes ``truth.json``: the event ids the
output check expects to be hit (planted) and never hit (decoys), the
geocoder stub's table, and the measured shares of the input properties the
pipeline's speed depends on.

Planted events are hit by a sentence that names the event's country (or,
on geocode_cold, a placename the geocoder resolves to it) with an explicit
full date inside the event. Decoy events sit in years no sentence above
the relevance threshold dates into: their only mentions are below the
threshold ("film", "song") or dated years after the event, in years no
event of any country falls in (a title's placename may pair the date with
another country).
"""

from __future__ import annotations

import bz2
import csv
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from xml.sax.saxutils import escape

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "coverage_auditor" / "data"
CITATION_URLS = ROOT / "tests" / "fixtures" / "citation_urls.txt"

# Input sizes per workload; "events" counts multi-source ground-truth
# events, and a fifth as many single-source ones are dropped by
# min_sources. Every invocation pays for the ground truth (consolidate)
# and the analysis whatever the corpus size, so the corpora are large
# enough, and wiki_sparse's ground truth small enough, that the stage each
# workload is about takes most of the wall time (scan on wiki_sparse,
# extract on news_dense, remote requests on geocode_cold). They are also
# small enough that one invocation takes under a second on one core, so a
# run's medians are taken over dozens of invocations.
SIZES = {
    "wiki_sparse": {"articles": 240, "planted": 8, "decoys": 8, "events": 1000},
    "news_dense": {"articles": 300, "planted": 40, "decoys": 20, "events": 2000},
    "geocode_cold": {"articles": 30, "planted": 15, "decoys": 10, "events": 2000},
}
NORMAL_YEARS = (2000, 2020)
DECOY_BASE = date(1951, 1, 1)  # decoy events live in 1951-1955 only
LATE_YEARS = (1957, 1959)      # late decoy mentions: no event of any country

MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]
MONTH_ABBR = ["Jan.", "Feb.", "Mar.", "Apr.", "May", "Jun.", "Jul.", "Aug.",
              "Sept.", "Oct.", "Nov.", "Dec."]
FLOOD_KEYWORD_RE = re.compile(r"\b(?:flood|floods|flooding|flooded|inundation)\b",
                              re.IGNORECASE)
# Substrings the relevance scorer reacts to; synthetic names avoid them so
# that a sentence's score is fixed by its template.
SCORER_CUES = ["flood", "inundat", "rain", "overflow", "evacuat", "submerg",
               "surge", "levee", "river", "deluge", "monsoon", "landfall",
               "myth", "film", "movie", "album", "video", "song", "novel", "band"]

# ISO alpha-2 codes the geocoder stub answers with. Every country here is
# one the live client already maps to alpha-3, so planted geocode_cold
# names resolve the same way once that map grows.
STUB_ISO2 = {
    "USA": "US", "GBR": "GB", "CAN": "CA", "JPN": "JP", "CHN": "CN",
    "IND": "IN", "PAK": "PK", "AUS": "AU", "BRA": "BR", "MEX": "MX",
    "FRA": "FR", "DEU": "DE", "ITA": "IT", "ESP": "ES", "NLD": "NL",
    "SDN": "SD", "HTI": "HT", "CUB": "CU", "AGO": "AO", "IRN": "IR",
    "NGA": "NG", "KEN": "KE", "ZAF": "ZA", "EGY": "EG", "IDN": "ID",
    "PHL": "PH", "VNM": "VN", "THA": "TH", "BGD": "BD", "NPL": "NP",
    "LKA": "LK", "MMR": "MM", "RUS": "RU", "TUR": "TR", "PER": "PE",
    "COL": "CO", "ARG": "AR", "CHL": "CL", "NZL": "NZ",
}

# Sentence templates. {P} is a placename, {D} a date, {N} a small number.
# FLOOD_T score above the relevance threshold (one or more cues, no
# negative cue); PLAIN_T carry no cue and score below it.
FLOOD_T = [
    "Heavy rain caused flooding in {P} on {D}.",
    "Floodwaters covered large parts of {P} by {D}.",
    "On {D}, the river burst its banks near {P}.",
    "Residents of {P} were told to evacuate on {D} as water levels rose.",
    "At least {N} people died in {P} after the floods on {D}.",
    "Emergency crews in {P} pumped water from flooded streets on {D}.",
]
PLAIN_T = [
    "Officials in {P} said schools would stay closed until {D}.",
    "The regional government opened shelters in {P} on {D}.",
]
CONTEXT_T = "Floods reached {P} on {D}, according to {A} officials."
INTRO_T = "In {M}, heavy rain fell across {P}."
NODATE_FLOOD_T = [
    "Heavy rain caused flooding in {P}.",
    "Several roads near {P} were flooded for days.",
]
PLANTED_T = "Severe flooding struck {C} on {D}, officials said."
DECOY_LOW_T = "The film {T} about the flood in {C}, with its title song, premiered on {D}."
DECOY_LATE_T = "Flooding was reported in {C} on {D}."
FILLER_T = [
    "The town has a population of about {N} thousand people.",
    "{P} lies on a plain at the foot of the hills.",
    "The economy of {P} is based on farming and trade.",
    "A railway line has connected {P} with the coast since the last century.",
    "The local school was rebuilt in {Y}.",
    "Most of the houses in the old quarter are built of stone.",
    "The market square hosts a weekly fair.",
    "{P} is known for its orchards and its wooden bridges.",
]
FILM_T = [
    "It is a drama film directed by {P} newcomers.",
    "The album was recorded in {P} over several weeks.",
    "Critics praised the title song and the soundtrack.",
]
NAME_SUFFIX = ["Valley", "Heights", "Delta", "Springs", "Harbor", "Point",
               "Crossing", "Plains"]


def normalize(text: str) -> str:
    return " ".join(re.sub(r"[^\w\s]", " ", text.lower()).split())


def _read_tsv(path: Path) -> list[list[str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                rows.append([f.strip() for f in line.split("\t")])
    return rows


@dataclass
class World:
    """Static tables read from the repository's own data files."""

    countries: list[tuple[str, str, str]]   # iso3, display name, continent
    spellings: dict[str, list[str]]         # iso3 -> names the sources use
    alias_re: re.Pattern                    # any normalized country alias
    context_aliases: list[str]              # one-word aliases the spotter skips
    gazetteer_rows: list[list[str]]
    kb_rows: list[list[str]]
    urls: list[str]

    @classmethod
    def load(cls) -> "World":
        countries = [tuple(r[:3]) for r in _read_tsv(DATA_DIR / "country_registry.tsv")]
        spellings = {iso3: [name] for iso3, name, _ in countries}
        aliases = _read_tsv(DATA_DIR / "country_aliases.tsv")
        for alias, iso3 in (r[:2] for r in aliases):
            spellings[iso3].append(alias)
        alias_set = {normalize(a) for a, _ in (r[:2] for r in aliases)}
        alias_set |= {normalize(n) for _, n, _ in countries} | {c[0].lower() for c in countries}
        alias_re = re.compile(r"\b(?:" + "|".join(
            re.escape(a) for a in sorted(alias_set, key=len, reverse=True)) + r")\b")
        context = [r[0] for r in aliases if re.fullmatch(r"[A-Z][a-z]+", r[0])]
        urls = [u.strip() for u in CITATION_URLS.read_text(encoding="utf-8").splitlines()
                if u.strip()]
        return cls(countries, spellings, alias_re, context,
                   _read_tsv(DATA_DIR / "gazetteer.tsv"),
                   _read_tsv(DATA_DIR / "kb.tsv"), urls)

    def spottable(self) -> list[tuple[str, str, str]]:
        """Countries whose display name the capitalized-run spotter can see
        whole and whose name carries no scorer cue."""
        return [c for c in self.countries
                if all(t[0].isupper() for t in c[1].split())
                and not any(cue in c[1].lower() for cue in SCORER_CUES)]


def check_vocabulary(world: World) -> None:
    """Template words must not be country aliases (e.g. iso3 'can', 'per'),
    or whole-text country inference would fire on plain English."""
    templates = (FLOOD_T + PLAIN_T + NODATE_FLOOD_T + FILLER_T + FILM_T +
                 [CONTEXT_T, INTRO_T, PLANTED_T, DECOY_LOW_T, DECOY_LATE_T])
    for t in templates:
        clash = world.alias_re.search(normalize(re.sub(r"\{\w\}", " ", t)))
        if clash:
            raise ValueError(f"template {t!r} names a country: {clash.group(0)!r}")


# --- dates ---------------------------------------------------------------

def full_date(rng: random.Random, d: date) -> str:
    form = rng.randrange(4)
    if form == 0:
        return f"{MONTHS[d.month - 1]} {d.day}, {d.year}"
    if form == 1:
        return f"{d.day} {MONTHS[d.month - 1]} {d.year}"
    if form == 2:
        return d.isoformat()
    return f"{MONTH_ABBR[d.month - 1]} {d.day}, {d.year}"


def partial_date(rng: random.Random, d: date) -> str:
    month = MONTHS[d.month - 1]
    form = rng.randrange(4)
    if form == 0:
        return f"{month} {d.day}"
    if form == 1:
        return f"{('early', 'late')[rng.randrange(2)]} {month}"
    if form == 2:
        return f"mid-{month}"
    return month


def random_day(rng: random.Random, year: int) -> date:
    return date(year, 1, 1) + timedelta(days=rng.randrange(365))


class Quota:
    """Choices with fixed shares that do not depend on the seed: the k-th
    call picks by a golden-ratio sequence, so every run of calls has about
    the planned mix. Structure (sentence kinds, paragraph counts, routes)
    comes from quotas and content (names, dates) from the seed, so the
    work per article is nearly the same on every seed."""

    def __init__(self, shares: dict):
        self.shares = shares
        self.k = 0

    def __call__(self):
        u = (self.k * 0.6180339887498949) % 1.0
        self.k += 1
        for option, share in self.shares.items():
            u -= share
            if u < 0:
                break
        return option


def even(*options) -> Quota:
    return Quota({o: 1 / len(options) for o in options})


# --- placenames ------------------------------------------------------------

_ONSETS = ["k", "v", "t", "m", "d", "l", "s", "b", "z", "n", "g", "h", "p", "f", "r"]
_VOWELS = ["a", "e", "i", "o", "u"]
_CODAS = {0: [""], 1: ["n", "r", "l", "s", "m"], 2: ["th"]}


@dataclass
class Place:
    name: str
    iso3: str | None
    route: str  # kb | remote | context | unresolved


def synthetic_word(rng: random.Random, syllables: int = 2, coda=lambda: 1) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS[coda()])
                   for _ in range(syllables)).capitalize()


def make_names(rng: random.Random, world: World, n: int) -> list[str]:
    """Distinct names; their shape (syllables, coda lengths, suffix) comes
    from quotas by rank, so the text length of the most mentioned names,
    and with it the artifact size, does not hinge on the seed."""
    taken = {normalize(r[0]) for r in world.gazetteer_rows + world.kb_rows}
    taken |= {normalize(c[1]) for c in world.countries}
    months = {normalize(m) for m in MONTHS + MONTH_ABBR}
    syllables, coda = Quota({2: 0.6, 3: 0.4}), Quota({0: 0.25, 1: 0.625, 2: 0.125})
    suffixed, suffix = Quota({False: 0.7, True: 0.3}), even(*NAME_SUFFIX)
    names: list[str] = []
    while len(names) < n:
        word = synthetic_word(rng, syllables(), coda)
        if suffixed():
            word = f"{word} {suffix()}"
        key = normalize(word)
        if (key in taken or key in months or world.alias_re.search(key)
                or any(cue in key for cue in SCORER_CUES)):
            continue
        taken.add(key)
        names.append(word)
    return names


def make_places(rng: random.Random, world: World, n: int,
                mix: dict[str, float], iso3_pool: list[str]) -> list[Place]:
    """Names in Zipf rank order; routes follow the rank by quota, so the
    mention-weighted route mix is the same on every seed."""
    route = Quota(mix)
    return [Place(name, rng.choice(iso3_pool), route()) for name in make_names(rng, world, n)]


class Zipf:
    """Draws items with probability proportional to 1 / rank ** s."""

    def __init__(self, items: list, s: float = 1.0):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / rank ** s
                                             for rank in range(1, len(items) + 1)))

    def draw(self, rng: random.Random):
        return rng.choices(self.items, cum_weights=self.cum)[0]


# --- ground truth -------------------------------------------------------------

@dataclass
class Event:
    iso3: str
    start: date
    end: date
    records: list[dict]
    multi: bool

    @property
    def event_id(self) -> str:
        return f"{self.iso3}-{self.start.isoformat()}"


def _records_for(rng: random.Random, iso3: str, s: date, e: date, n_src: int) -> list[dict]:
    """Per-source records that overlap pairwise, so they merge into one event."""
    recs = []
    for source in rng.sample(["floodlist", "emdat", "dfo"], n_src):
        start = s + timedelta(days=rng.randint(0, 1))
        end = None if rng.random() < 0.1 else e - timedelta(days=rng.randint(0, 1))
        recs.append({"source": source, "iso3": iso3, "start": start, "end": end,
                     "fatalities": None if rng.random() < 0.2 else rng.randint(0, 3000)})
    return recs


def _event_from(iso3: str, recs: list[dict], multi: bool) -> Event:
    start = min(r["start"] for r in recs)
    end = max(r["end"] or r["start"] + timedelta(days=3) for r in recs)
    return Event(iso3, start, end, recs, multi)


def make_ground_truth(rng: random.Random, world: World, decoy_iso3: list[str],
                      n_multi: int) -> list[Event]:
    """Events in 30-day slots, one per (country, slot), so no two merge.
    Countries take turns, so every country has about the same number of
    events on every seed and matching work does not hinge on which
    countries the seed's placenames point at."""
    iso3s = [c[0] for c in world.countries]
    n_slots = (NORMAL_YEARS[1] - NORMAL_YEARS[0] + 1) * 12
    slots: dict[str, set[int]] = {iso3: set() for iso3 in iso3s}
    events = []
    for i in range(n_multi + n_multi // 5):
        iso3 = iso3s[i % len(iso3s)]
        k = rng.randrange(n_slots)
        while k in slots[iso3]:
            k = (k + 1) % n_slots
        slots[iso3].add(k)
        base = date(NORMAL_YEARS[0], 1, 1) + timedelta(days=30 * k)
        s = base + timedelta(days=rng.randint(2, 8))
        e = s + timedelta(days=rng.randint(3, 12))
        multi = i < n_multi
        n_src = rng.randint(2, 3) if multi else 1
        events.append(_event_from(iso3, _records_for(rng, iso3, s, e, n_src), multi))
    for iso3 in decoy_iso3:
        s = DECOY_BASE + timedelta(days=30 * rng.randrange(60) + rng.randint(2, 8))
        e = s + timedelta(days=rng.randint(3, 10))
        events.append(_event_from(iso3, _records_for(rng, iso3, s, e, 2), True))
    return events


def write_sources(rng: random.Random, world: World, events: list[Event], out: Path) -> None:
    rows = {"floodlist": [], "emdat": [], "dfo": []}
    names = {iso3: name for iso3, name, _ in world.countries}
    for ev in events:
        for r in ev.records:
            rows[r["source"]].append(r)
    rng.shuffle(rows["floodlist"])
    iso = lambda d: d.isoformat() if d else ""
    num = lambda v: "" if v is None else str(v)
    with open(out / "floodlist.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["country", "start_date", "end_date", "fatalities", "locations", "tags", "id"])
        for i, r in enumerate(rows["floodlist"]):
            w.writerow([rng.choice(world.spellings[r["iso3"]]), iso(r["start"]), iso(r["end"]),
                        num(r["fatalities"]), "", "floods", f"FL-{i:05d}"])
        # Rows the parser must exclude or reject; none touches an event.
        w.writerow([names["PER"], "1930-05-01", "1930-05-04", "", "", "landslides", "FL-X1"])
        w.writerow(["Atlantis", "1931-01-01", "1931-01-02", "3", "", "floods", "FL-X2"])
        w.writerow([names["CHL"], "1932-13-45", "", "", "", "floods", "FL-X3"])
    with open(out / "emdat.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso", "country", "start_date", "end_date", "deaths", "affected",
                    "disaster_type", "id"])
        for i, r in enumerate(rows["emdat"]):
            w.writerow([r["iso3"], rng.choice(world.spellings[r["iso3"]]), iso(r["start"]),
                        iso(r["end"]), num(r["fatalities"]), str(rng.randint(100, 90000)),
                        rng.choice(["Flood", "Flood", "Storm"]), f"EM-{i:05d}"])
        w.writerow(["JPN", names["JPN"], "1933-03-01", "1933-03-02", "5", "", "Earthquake", "EM-X1"])
    with open(out / "dfo.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["country", "began", "ended", "dead", "displaced", "id"])
        for i, r in enumerate(rows["dfo"]):
            w.writerow([rng.choice(world.spellings[r["iso3"]]), iso(r["start"]), iso(r["end"]),
                        num(r["fatalities"]), str(rng.randint(0, 50000)), str(10000 + i)])


def write_indicators(rng: random.Random, world: World, out: Path) -> None:
    groups = ["Low income", "Lower middle income", "Upper middle income", "High income"]
    with open(out / "indicators.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iso3", "gdp_per_capita", "gni_group", "vulnerability",
                    "lack_of_coping", "english_pct", "population", "continent"])
        for iso3, _, continent in world.countries:
            blank = rng.random() < 0.1
            w.writerow([iso3, "" if blank else f"{rng.lognormvariate(8.5, 1.2):.0f}",
                        rng.choice(groups), f"{rng.uniform(0, 10):.1f}",
                        "" if blank else f"{rng.uniform(0, 10):.1f}",
                        f"{rng.uniform(0, 100):.0f}", str(rng.randint(50_000, 300_000_000)),
                        continent])


# --- corpus text -----------------------------------------------------------------

@dataclass
class Stats:
    """Measured input properties, counted while the text is generated."""

    articles: int = 0
    flood_articles: int = 0
    title_rule: int = 0
    mentions: int = 0
    repeats: int = 0
    routes: dict = field(default_factory=lambda: {"kb": 0, "remote": 0, "context": 0,
                                                  "unresolved": 0})
    dates: int = 0
    partial: int = 0
    _seen: set = field(default_factory=set)

    def mention(self, place: Place) -> str:
        self.mentions += 1
        self.repeats += place.name in self._seen
        self._seen.add(place.name)
        self.routes[place.route] += 1
        return place.name

    def article(self, title: str, sentences: list[str]) -> None:
        self.articles += 1
        title_hit = bool(FLOOD_KEYWORD_RE.search(title))
        self.title_rule += title_hit
        self.flood_articles += title_hit or any(FLOOD_KEYWORD_RE.search(s) for s in sentences)

    def shares(self) -> dict:
        share = lambda a, b: round(a / b, 4) if b else 0.0
        return {
            "articles": self.articles,
            "flood_article_share": share(self.flood_articles, self.articles),
            "title_rule_share": share(self.title_rule, self.articles),
            "placename_repeat_share": share(self.repeats, self.mentions),
            "route_mix": {k: share(v, self.mentions) for k, v in self.routes.items()},
            "partial_date_share": share(self.partial, self.dates),
        }


class Writer:
    """Builds flood sentences from templates, recording their properties."""

    def __init__(self, rng: random.Random, world: World, places: list[Place], stats: Stats,
                 zipf_s: float = 1.0):
        self.rng = rng
        self.world = world
        self.zipf = Zipf(places, zipf_s)
        self.stats = stats
        self.partial = Quota({True: 0.55, False: 0.45})
        self.kind = Quota({"flood": 0.75, "plain": 0.13, "nodate": 0.12})
        self.flood_t, self.plain_t, self.nodate_t = even(*FLOOD_T), even(*PLAIN_T), \
            even(*NODATE_FLOOD_T)
        self.intro = Quota({True: 0.6, False: 0.4})
        self.sentences = even(2, 3)
        self.title_form = even(0, 1, 2, 3)
        self.cited = Quota({0: 0.65, 1: 0.2, 2: 0.15})

    def date_text(self, year: int) -> str:
        d = random_day(self.rng, year)
        self.stats.dates += 1
        if self.partial():
            self.stats.partial += 1
            return partial_date(self.rng, d)
        return full_date(self.rng, d)

    def sentence(self, year: int) -> str:
        rng = self.rng
        place = self.zipf.draw(rng)
        name = self.stats.mention(place)
        n = str(rng.randint(2, 400))
        if place.route == "context":
            alias = rng.choice(self.world.context_aliases)
            return CONTEXT_T.format(P=name, D=self.date_text(year), A=alias)
        kind = self.kind()
        if kind == "nodate":
            return self.nodate_t().format(P=name)
        template = self.plain_t() if kind == "plain" else self.flood_t()
        return template.format(P=name, D=self.date_text(year), N=n)

    def paragraph(self) -> list[str]:
        """Sentences of one paragraph. An opening month-year, or any full
        date, gives partial dates their year; otherwise they fall back to
        the title's, if it has one."""
        rng = self.rng
        year = rng.randint(*NORMAL_YEARS)
        out = []
        if self.intro():
            place = self.stats.mention(self.zipf.draw(rng))
            self.stats.dates += 1
            out.append(INTRO_T.format(M=f"{MONTHS[rng.randrange(12)]} {year}", P=place))
        out += [self.sentence(year) for _ in range(self.sentences())]
        return out

    def title(self, place: str) -> str:
        form = self.title_form()
        year = self.rng.randint(*NORMAL_YEARS)
        if form == 0:
            return f"{place} floods"
        if form == 1:
            return f"{year} {place} floods"
        if form == 2:
            return f"Flooding in {place}"
        return f"Floods in {place} ({MONTHS[self.rng.randrange(12)]} {year})"

    def citations(self, paragraphs: list[str]) -> list[dict]:
        out = []
        for pidx, text in enumerate(paragraphs):
            for url in self.rng.sample(self.world.urls, self.cited()):
                out.append({"paragraph_index": pidx, "offset": self.rng.randrange(len(text)),
                            "url": url})
        return out


def planted_sentence(rng: random.Random, name: str, ev: Event) -> str:
    d = ev.start + timedelta(days=rng.randint(0, (ev.end - ev.start).days))
    return PLANTED_T.format(C=name, D=full_date(rng, d))


def decoy_sentence(rng: random.Random, name: str, ev: Event, low: bool) -> str:
    if low:
        d = ev.start + timedelta(days=rng.randint(0, (ev.end - ev.start).days))
        return DECOY_LOW_T.format(T=synthetic_word(rng), C=name, D=full_date(rng, d))
    d = random_day(rng, rng.randint(*LATE_YEARS))
    return DECOY_LATE_T.format(C=name, D=full_date(rng, d))


def news_articles(rng: random.Random, writer: Writer, n: int,
                  special: list[list[str]]) -> list[dict]:
    """Flood-titled JSONL articles; ``special`` paragraphs (planted and decoy
    sentences) are spread over them, each as its own paragraph."""
    articles = []
    slots = [[] for _ in range(n)]
    for para in special:
        slots[rng.randrange(n)].append(para)
    n_paragraphs = even(1, 2, 3)
    stats = writer.stats
    for i in range(n):
        title = writer.title(stats.mention(writer.zipf.draw(rng)))
        paragraphs = [writer.paragraph() for _ in range(n_paragraphs())]
        for para in slots[i]:
            paragraphs.insert(rng.randint(0, len(paragraphs)), para)
        texts = [" ".join(p) for p in paragraphs]
        stats.article(title, [s for p in paragraphs for s in p])
        articles.append({"article_id": f"n{i:06d}", "title": title, "paragraphs": texts,
                         "citations": writer.citations(texts)})
    return articles


def write_jsonl_corpus(articles: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, a in enumerate(articles):
            fh.write(json.dumps(a, ensure_ascii=False) + "\n")
            if i % 400 == 399:
                fh.write('{"article_id": "broken", "title": \n')  # malformed line


# --- wikitext -------------------------------------------------------------------

_NAME_RE = re.compile(r"\b[A-Z][a-z]+(?: [A-Z][a-z]+)?\b")


def _wiki_sentence(rng: random.Random, world: World, text: str, links: set[str]) -> str:
    """Link known names and append a citation ref to some sentences."""
    def _link(m: re.Match) -> str:
        name = m.group(0)
        if name not in links or rng.random() < 0.4:
            return name
        return f"[[{name} (place)|{name}]]" if rng.random() < 0.3 else f"[[{name}]]"

    text = _NAME_RE.sub(_link, text)
    if rng.random() < 0.3:
        url = rng.choice(world.urls)
        cite = (f"{{{{cite web |url={url} |title=Report |date={{{{date|{rng.randint(2000, 2020)}}}}}"
                f" |access-date=2020-01-01}}}}")
        text = text[:-1] + f"<ref>{cite}</ref>."
    elif rng.random() < 0.1:
        text = text[:-1] + '<ref name="atlas" />.'
    return text


def _wiki_page(rng: random.Random, world: World, title: str, paragraphs: list[list[str]],
               links: set[str]) -> str:
    infobox = (f"{{{{Infobox settlement\n| name = {title}\n| population = "
               f"{{{{formatnum:{rng.randint(1000, 900000)}}}}}\n| elevation = {{{{convert|"
               f"{rng.randint(1, 900)}|m}}}}\n| coordinates = {{{{coord|{rng.randint(0, 80)}|N}}}}\n}}}}")
    parts = [infobox, f"<!-- generated page {rng.randrange(10**6)} -->",
             f"'''{title}''' is a place in the region."]
    for k, para in enumerate(paragraphs):
        if k and rng.random() < 0.3:
            parts.append(f"== {rng.choice(['History', 'Geography', 'Economy', 'Climate'])} ==")
        parts.append(" ".join(_wiki_sentence(rng, world, s, links) for s in para))
    parts.append(f"[[File:{title}.jpg|thumb|A view of {title}]]")
    parts.append(f"[[Category:Places in {title}]] [http://example.org/{rng.randrange(999)} Map]")
    return "\n\n".join(parts)


def wiki_articles(rng: random.Random, world: World, writer: Writer, places: list[Place],
                  n: int, planted: list[list[str]], decoy_low: list[list[str]],
                  decoy_late: list[list[str]]) -> list[tuple[str, str, str]]:
    """(title, namespace, wikitext) pages: long place articles, a few
    percent about floods (titled or with a flood section), a few decoys
    (film, album), and some talk pages and untitled pages that scan skips
    or rejects."""
    n_flood = max(len(planted) + len(decoy_late), n // 25)
    n_decoy = max(len(decoy_low), n // 50)
    kinds = ["flood"] * n_flood + ["decoy"] * n_decoy + ["place"] * (n - n_flood - n_decoy)
    rng.shuffle(kinds)
    flood_specials = planted + decoy_late
    flood_slots = [[] for _ in range(n_flood)]
    for para in flood_specials:
        flood_slots[rng.randrange(n_flood)].append(para)
    decoy_slots = [[] for _ in range(n_decoy)]
    for para in decoy_low:
        decoy_slots[rng.randrange(n_decoy)].append(para)
    link_names = {p.name for p in places} | {c[1] for c in world.countries}
    n_filler, n_filler_sentences, n_flood = even(*range(9, 15)), even(3, 4, 5), even(2, 3)
    titled = Quota({True: 0.7, False: 0.3})
    namespace = Quota({"main": 0.975, "talk": 0.02, "untitled": 0.005})
    pages = []
    fi = di = 0
    for kind in kinds:
        subject = places[rng.randrange(len(places))].name
        # Filler years stay clear of the decoy years.
        filler = [[rng.choice(FILLER_T).format(P=subject, N=rng.randint(2, 900),
                                               Y=rng.randint(1900, 1949))
                   for _ in range(n_filler_sentences())] for _ in range(n_filler())]
        if kind == "flood":
            title = writer.title(subject) if titled() else subject
            flood = [writer.paragraph() for _ in range(n_flood())]
            paragraphs = filler[:3] + flood + flood_slots[fi] + filler[3:]
            fi += 1
        elif kind == "decoy":
            title = f"The Flood at {subject} ({rng.choice(['film', 'album'])})"
            paragraphs = [[rng.choice(FILM_T).format(P=subject) for _ in range(3)]]
            paragraphs += decoy_slots[di] + filler[:4]
            di += 1
        else:
            title = subject
            paragraphs = filler
        text = _wiki_page(rng, world, title, paragraphs, link_names)
        ns = "0"
        page = namespace() if kind == "place" else "main"
        if page == "talk":
            ns, title = "1", f"Talk:{title}"
        elif page == "untitled":
            title = ""  # rejected: page without title
        else:
            writer.stats.article(title, [s for p in paragraphs for s in p])
        pages.append((title, ns, text))
    return pages


def write_xml_corpus(pages: list[tuple[str, str, str]], path: Path) -> None:
    out = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">']
    for i, (title, ns, text) in enumerate(pages):
        out.append(f"  <page>\n    <title>{escape(title)}</title>\n    <ns>{ns}</ns>\n"
                   f"    <id>{100000 + i}</id>\n    <revision>\n      <id>{900000 + i}</id>\n"
                   f"      <timestamp>2020-01-01T00:00:00Z</timestamp>\n"
                   f'      <text xml:space="preserve">{escape(text)}</text>\n'
                   f"    </revision>\n  </page>")
    out.append("</mediawiki>\n")
    with bz2.open(path, "wt", encoding="utf-8", compresslevel=9) as fh:
        fh.write("\n".join(out))


# --- tables and config ---------------------------------------------------------

def write_place_tables(world: World, places: list[Place], stub: bool, out: Path) -> dict:
    """Gazetteer and kb rows for every synthetic name, plus the geocoder's
    answers: a replay JSONL, or (stub=True) Nominatim-style stub entries."""
    gaz_cols = len(world.gazetteer_rows[0])
    kb_cols = len(world.kb_rows[0])
    gaz = list(world.gazetteer_rows)
    kb = list(world.kb_rows)
    replay, stub_table = [], {}
    for i, p in enumerate(places):
        gaz.append([p.name, p.iso3 or "", f"{0.1 + (i % 9) / 10:.1f}"][:gaz_cols])
        if p.route == "kb":
            kb.append([p.name, p.iso3, "true"][:kb_cols])
        elif p.route == "remote" and i % 5 == 0:
            kb.append([p.name, p.iso3, "false"][:kb_cols])  # no enwiki page: falls through
        if p.route == "remote":
            results = [{"display_name": f"{p.name}, {p.iso3}", "iso3": p.iso3,
                        "importance": 0.6}]
            if i % 4 == 0:
                results.append({"display_name": f"{p.name} (hamlet)",
                                "iso3": "NZL" if p.iso3 != "NZL" else "CHL", "importance": 0.2})
        elif p.route == "context":
            results = [] if i % 2 else [{"display_name": f"{p.name} region", "iso3": None,
                                         "importance": 0.3}]
        else:
            continue
        replay.append({"query": p.name, "results": results})
        if stub:
            stub_table[normalize(p.name)] = [
                {"display_name": r["display_name"], "importance": r["importance"],
                 "address": ({"country_code": STUB_ISO2[r["iso3"]].lower()} if r["iso3"] else {})}
                for r in results]
    with open(out / "gazetteer.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(r) + "\n" for r in gaz))
    with open(out / "kb.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(r) + "\n" for r in kb))
    if not stub:
        with open(out / "replay.jsonl", "w", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in replay))
    return stub_table


def write_config(out: Path, corpus: str, fmt: str, live: bool) -> None:
    geocoder = "live" if live else "replay:\nreplay = replay.jsonl"
    (out / "config.ini").write_text(f"""[inputs]
floodlist = floodlist.csv
emdat = emdat.csv
dfo = dfo.csv
corpus = {corpus}
corpus_format = {fmt}
indicators = indicators.csv

[consolidate]
min_sources = 2

[scan]
threshold = 0.40
scorer = builtin

[extract]
gazetteer = gazetteer.tsv
kb = kb.tsv
geocoder = {geocoder}
max_inflight = 2
min_delay_ms = 0

[match]
strategy = ymd
window_days = 5

[analyze]
min_country_events = 5
top_domains = 10
fatalities_unknown = zero
""", encoding="utf-8")


# --- entry point ------------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``out``; return
    the truth record (also written as truth.json)."""
    size = SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    world = World.load()
    check_vocabulary(world)
    out.mkdir(parents=True, exist_ok=True)
    live = workload == "geocode_cold"

    spottable = world.spottable()
    covered = [c for c in spottable if c[0] in STUB_ISO2]
    decoy_countries = rng.sample(spottable, size["decoys"])
    events = make_ground_truth(rng, world, [c[0] for c in decoy_countries], size["events"])
    write_sources(rng, world, events, out)
    write_indicators(rng, world, out)

    pool = [c[0] for c in (covered if live else spottable)]
    if live:
        # Mostly unique names that miss the kb: each costs one remote request.
        mix = {"remote": 0.8, "context": 0.12, "kb": 0.05, "unresolved": 0.03}
        places = make_places(rng, world, 910, mix, pool)
    else:
        mix = {"kb": 0.45, "remote": 0.3, "context": 0.17, "unresolved": 0.08}
        places = make_places(rng, world, 710, mix, pool)
    stub_table = write_place_tables(world, places, live, out)

    names = {c[0]: c[1] for c in world.countries}
    multi = [e for e in events if e.multi and e.start.year >= NORMAL_YEARS[0]]
    planted_events = rng.sample([e for e in multi if e.iso3 in set(pool)], size["planted"])
    remote_by_iso3: dict[str, list[Place]] = {}
    for p in places:
        if p.route == "remote":
            remote_by_iso3.setdefault(p.iso3, []).append(p)
    planted = []
    for ev in planted_events:
        if live and remote_by_iso3.get(ev.iso3):
            name = rng.choice(remote_by_iso3[ev.iso3]).name
        else:
            name = names[ev.iso3]
        planted.append([planted_sentence(rng, name, ev)])
    decoys = [e for e in events if e.start < date(NORMAL_YEARS[0], 1, 1)]
    decoy_low = [[decoy_sentence(rng, names[e.iso3], e, True)] for e in decoys[::2]]
    decoy_late = [[decoy_sentence(rng, names[e.iso3], e, False)] for e in decoys[1::2]]

    stats = Stats()
    # Mentions follow a Zipf law over the pool, except on geocode_cold,
    # where names are nearly all distinct (a flat draw over a large pool).
    writer = Writer(rng, world, places, stats, zipf_s=0.0 if live else 1.0)
    if workload == "wiki_sparse":
        pages = wiki_articles(rng, world, writer, places, size["articles"],
                              planted, decoy_low, decoy_late)
        corpus, fmt = "corpus.xml.bz2", "xml"
        write_xml_corpus(pages, out / corpus)
    else:
        specials = planted + decoy_low + decoy_late
        articles = news_articles(rng, writer, size["articles"], specials)
        corpus, fmt = "corpus.jsonl", "jsonl"
        write_jsonl_corpus(articles, out / corpus)
    write_config(out, corpus, fmt, live)

    truth = {
        "workload": workload,
        "seed": seed,
        "planted": sorted({e.event_id for e in planted_events}),
        "decoys": sorted(e.event_id for e in decoys),
        "ground_truth_events": sum(e.multi for e in events),
        "properties": stats.shares(),
        "stub": stub_table,
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return truth
