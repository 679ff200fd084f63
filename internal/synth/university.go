package synth

import (
	"fmt"
	"math/rand"

	"qunits/internal/imdb"
	"qunits/internal/relational"
)

// UniversityConfig sizes the university corpus (the schema from
// examples/universitydb, scaled).
type UniversityConfig struct {
	Seed             int64
	Departments      int
	Professors       int
	Courses          int
	Students         int
	EnrollPerStudent int
}

// DefaultUniversityConfig is a mid-size campus: large enough that
// schema-derived qunits materialize tens of thousands of instances.
func DefaultUniversityConfig() UniversityConfig {
	return UniversityConfig{
		Seed:             1,
		Departments:      40,
		Professors:       1200,
		Courses:          6000,
		Students:         30000,
		EnrollPerStudent: 4,
	}
}

func (cfg UniversityConfig) withDefaults() UniversityConfig {
	d := DefaultUniversityConfig()
	if cfg.Departments <= 0 {
		cfg.Departments = d.Departments
	}
	if cfg.Professors <= 0 {
		cfg.Professors = d.Professors
	}
	if cfg.Courses <= 0 {
		cfg.Courses = d.Courses
	}
	if cfg.Students <= 0 {
		cfg.Students = d.Students
	}
	if cfg.EnrollPerStudent <= 0 {
		cfg.EnrollPerStudent = d.EnrollPerStudent
	}
	return cfg
}

var deptSubjects = []string{
	"computer science", "mathematics", "physics", "chemistry", "biology",
	"economics", "history", "philosophy", "linguistics", "psychology",
	"sociology", "anthropology", "statistics", "astronomy", "geology",
	"music", "architecture", "literature", "engineering", "medicine",
}

var courseTopics = []string{
	"databases", "information retrieval", "algebra", "calculus",
	"thermodynamics", "genetics", "macroeconomics", "logic", "syntax",
	"perception", "networks", "probability", "optics", "mechanics",
	"composition", "design", "poetics", "kinetics", "ethics", "topology",
	"compilers", "cryptography", "ecology", "rhetoric", "dynamics",
}

var courseLevels = []string{
	"introduction to", "intermediate", "advanced", "seminar in",
	"topics in", "foundations of", "applied", "computational",
}

// GenerateUniversity scales the examples/universitydb schema: the same
// five tables and foreign keys, populated to cfg's cardinalities,
// deterministic per seed. Pair it with derive.FromSchema to materialize
// a non-IMDb corpus of arbitrary size.
func GenerateUniversity(cfg UniversityConfig) (*relational.Database, error) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	db := relational.NewDatabase("university")
	db.MustCreateTable(relational.MustTableSchema("department", []relational.Column{
		{Name: "id", Kind: relational.KindInt},
		{Name: "name", Kind: relational.KindString, Searchable: true, Label: true},
		{Name: "building", Kind: relational.KindString},
	}, "id", nil))
	db.MustCreateTable(relational.MustTableSchema("professor", []relational.Column{
		{Name: "id", Kind: relational.KindInt},
		{Name: "name", Kind: relational.KindString, Searchable: true, Label: true},
		{Name: "dept_id", Kind: relational.KindInt},
	}, "id", []relational.ForeignKey{{Column: "dept_id", RefTable: "department"}}))
	db.MustCreateTable(relational.MustTableSchema("course", []relational.Column{
		{Name: "id", Kind: relational.KindInt},
		{Name: "title", Kind: relational.KindString, Searchable: true, Label: true},
		{Name: "dept_id", Kind: relational.KindInt},
		{Name: "prof_id", Kind: relational.KindInt},
	}, "id", []relational.ForeignKey{
		{Column: "dept_id", RefTable: "department"},
		{Column: "prof_id", RefTable: "professor"},
	}))
	db.MustCreateTable(relational.MustTableSchema("student", []relational.Column{
		{Name: "id", Kind: relational.KindInt},
		{Name: "name", Kind: relational.KindString, Searchable: true, Label: true},
		{Name: "year", Kind: relational.KindInt},
	}, "id", nil))
	db.MustCreateTable(relational.MustTableSchema("enrollment", []relational.Column{
		{Name: "student_id", Kind: relational.KindInt},
		{Name: "course_id", Kind: relational.KindInt},
		{Name: "grade", Kind: relational.KindString},
	}, "", []relational.ForeignKey{
		{Column: "student_id", RefTable: "student"},
		{Column: "course_id", RefTable: "course"},
	}))

	v := imdb.Vocabulary()
	depT := db.Table("department")
	for i := 0; i < cfg.Departments; i++ {
		name := deptSubjects[i%len(deptSubjects)]
		if gen := i / len(deptSubjects); gen > 0 {
			name += " " + imdb.OrdinalSuffix(gen+1)
		}
		building := v.LastNames[r.Intn(len(v.LastNames))] + " hall"
		depT.MustInsert(relational.Row{
			relational.Int(int64(i + 1)), relational.String(name), relational.String(building),
		})
	}
	// Professors and students share the arithmetic namer with the IMDb
	// corpus; distinct walk offsets keep the two populations from being
	// copies of each other.
	profNamer := newPersonNamer(cfg.Seed, v)
	profT := db.Table("professor")
	for i := 0; i < cfg.Professors; i++ {
		profT.MustInsert(relational.Row{
			relational.Int(int64(i + 1)),
			relational.String(profNamer.name(i + len(v.FamousPeople))),
			relational.Int(int64(1 + r.Intn(cfg.Departments))),
		})
	}
	courseT := db.Table("course")
	seen := make(map[string]bool, cfg.Courses)
	sequels := make(map[string]int)
	for i := 0; i < cfg.Courses; i++ {
		title := courseLevels[r.Intn(len(courseLevels))] + " " + courseTopics[r.Intn(len(courseTopics))]
		if seen[title] {
			base := title
			k := sequels[base]
			if k < 2 {
				k = 2
			}
			for seen[base+" "+imdb.OrdinalSuffix(k)] {
				k++
			}
			sequels[base] = k + 1
			title = base + " " + imdb.OrdinalSuffix(k)
		}
		seen[title] = true
		courseT.MustInsert(relational.Row{
			relational.Int(int64(i + 1)), relational.String(title),
			relational.Int(int64(1 + r.Intn(cfg.Departments))),
			relational.Int(int64(1 + r.Intn(cfg.Professors))),
		})
	}
	studentNamer := newPersonNamer(cfg.Seed^0x5deece66d, v)
	studentT := db.Table("student")
	for i := 0; i < cfg.Students; i++ {
		studentT.MustInsert(relational.Row{
			relational.Int(int64(i + 1)),
			relational.String(studentNamer.name(i + len(v.FamousPeople))),
			relational.Int(int64(1 + r.Intn(4))),
		})
	}
	enrT := db.Table("enrollment")
	grades := []string{"a", "b", "c", "d"}
	for i := 0; i < cfg.Students; i++ {
		n := 1 + r.Intn(2*cfg.EnrollPerStudent)
		seenC := make(map[int64]bool, n)
		for j := 0; j < n; j++ {
			// Square the uniform draw so enrollment is head-heavy: popular
			// courses dominate, matching the zipfian traffic the
			// benchmark's query mixes assume.
			c := int64(1 + int(float64(cfg.Courses)*r.Float64()*r.Float64()))
			if c > int64(cfg.Courses) {
				c = int64(cfg.Courses)
			}
			if seenC[c] {
				continue
			}
			seenC[c] = true
			enrT.MustInsert(relational.Row{
				relational.Int(int64(i + 1)), relational.Int(c),
				relational.String(grades[r.Intn(len(grades))]),
			})
		}
	}

	db.Tables(func(t *relational.Table) {
		for _, fk := range t.Schema().ForeignKeys {
			if err := t.CreateIndex(fk.Column); err != nil {
				panic(err) // unreachable: columns come from validated schemas
			}
		}
	})
	if err := db.ValidateForeignKeys(); err != nil {
		return nil, fmt.Errorf("synth: generated university fails FK validation: %w", err)
	}
	return db, nil
}
