// Command predict trains a surrogate model and persists it, or loads a
// persisted surrogate and scores configurations — the train-once /
// predict-forever workflow a design team would actually use.
//
// Train and save:
//
//	predict -train -bench mcf -model NN-E -frac 0.02 -out mcf-nne.json
//
// Load and score a CSV (format written by specgen / Dataset.WriteCSV;
// the target column is used only to report the error):
//
//	specgen -family "Pentium D" > pd.csv
//	predict -train -family "Pentium D" -model LR-E -out pd-lre.json
//	predict -model-file pd-lre.json -csv pd.csv
//
// The CLI shares the model loader and the batch JSON wire schema with
// the perfpredd daemon, so a request body scored offline here is
// bit-identical to the same body POSTed to /v1/predict:
//
//	predict -model-file pd-lre.json -csv pd.csv -emit-request 8 > req.json
//	predict -model-file pd-lre.json -json req.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"perfpred"
	"perfpred/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("predict: ")
	train := flag.Bool("train", false, "train a new model")
	bench := flag.String("bench", "", "design-space benchmark to train on (sampled DSE)")
	family := flag.String("family", "", "SPEC family to train on (2005 announcements)")
	model := flag.String("model", "NN-E", "model kind, e.g. NN-E or TREE-B (any registered family; see dse -list)")
	frac := flag.Float64("frac", 0.02, "design-space sampling fraction (with -bench)")
	out := flag.String("out", "model.json", "output path for the trained model")
	modelFile := flag.String("model-file", "", "persisted model to load")
	csvPath := flag.String("csv", "", "CSV of configurations to score")
	jsonPath := flag.String("json", "", "serve-format predict request to score offline")
	emitRequest := flag.Int("emit-request", 0, "emit a serve-format request for the first N CSV rows instead of scoring")
	seed := flag.Int64("seed", 1, "seed")
	stride := flag.Int("stride", 11, "design-space stride during training (with -bench)")
	flag.Parse()

	switch {
	case *train:
		if err := trainAndSave(*bench, *family, *model, *frac, *out, *seed, *stride); err != nil {
			log.Fatal(err)
		}
	case *modelFile != "" && *csvPath != "" && *emitRequest > 0:
		if err := emitRequestJSON(*modelFile, *csvPath, *emitRequest); err != nil {
			log.Fatal(err)
		}
	case *modelFile != "" && *jsonPath != "":
		if err := scoreRequestJSON(*modelFile, *jsonPath); err != nil {
			log.Fatal(err)
		}
	case *modelFile != "" && *csvPath != "":
		if err := loadAndScore(*modelFile, *csvPath); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("use -train (with -bench or -family), -model-file FILE -csv FILE, or -model-file FILE -json REQ")
	}
}

func trainAndSave(bench, family, model string, frac float64, out string, seed int64, stride int) error {
	kind, err := perfpred.ParseModelKind(model)
	if err != nil {
		return err
	}
	var ds *perfpred.Dataset
	switch {
	case bench != "":
		full, err := perfpred.SimulateDesignSpace(context.Background(), bench, perfpred.SimOptions{Seed: seed, Stride: stride})
		if err != nil {
			return err
		}
		sampled, err := perfpred.RunSampledDSE(context.Background(), full, frac, []perfpred.ModelKind{kind}, perfpred.TrainConfig{Seed: seed})
		if err != nil {
			return err
		}
		rep := sampled.Reports[0]
		fmt.Printf("trained %v on %d of %d simulated points; true error %.2f%%\n",
			kind, sampled.SampleSize, full.Len(), rep.TrueMAPE)
		return save(rep.Predictor, out)
	case family != "":
		recs, err := perfpred.GenerateSPECData(family, seed)
		if err != nil {
			return err
		}
		if ds, err = perfpred.SPECDataset(recs, 2005); err != nil {
			return err
		}
		p, err := perfpred.Train(context.Background(), kind, ds, perfpred.TrainConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Printf("trained %v on %d announcements of 2005\n", kind, ds.Len())
		return save(p, out)
	default:
		return fmt.Errorf("-train needs -bench or -family")
	}
}

func save(p *perfpred.Predictor, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("saved model to", path)
	return nil
}

// loadCSV loads a persisted model plus a CSV of configurations in its
// schema, through the same loader (and Validate pass) the daemon's
// registry uses.
func loadCSV(modelPath, csvPath string) (*serve.Model, *perfpred.Dataset, error) {
	m, err := serve.LoadModelFile(modelPath)
	if err != nil {
		return nil, nil, err
	}
	cf, err := os.Open(csvPath)
	if err != nil {
		return nil, nil, err
	}
	defer cf.Close()
	ds, err := perfpred.ReadDatasetCSV(cf, m.Pred.Encoder().Schema())
	if err != nil {
		return nil, nil, err
	}
	return m, ds, nil
}

func loadAndScore(modelPath, csvPath string) error {
	m, ds, err := loadCSV(modelPath, csvPath)
	if err != nil {
		return err
	}
	p := m.Pred
	fmt.Printf("loaded %v model %q; scoring %d configurations from %s\n\n", p.Kind(), m.Name, ds.Len(), csvPath)
	sumAPE := 0.0
	show := ds.Len()
	if show > 10 {
		show = 10
	}
	for i := 0; i < ds.Len(); i++ {
		yhat, err := p.Predict(ds.Row(i))
		if err != nil {
			return err
		}
		y := ds.Target(i)
		ape := 0.0
		if y != 0 {
			ape = 100 * abs(yhat-y) / abs(y)
		}
		sumAPE += ape
		if i < show {
			fmt.Printf("  #%-4d predicted %10.2f   actual %10.2f   error %5.2f%%\n", i, yhat, y, ape)
		}
	}
	if ds.Len() > show {
		fmt.Printf("  ... %d more\n", ds.Len()-show)
	}
	fmt.Printf("\nmean absolute percentage error: %.2f%%\n", sumAPE/float64(ds.Len()))
	return nil
}

// emitRequestJSON writes the serve-format predict request for the first
// n CSV rows to stdout — the body can be POSTed to perfpredd's
// /v1/predict verbatim, or scored offline with -json.
func emitRequestJSON(modelPath, csvPath string, n int) error {
	m, ds, err := loadCSV(modelPath, csvPath)
	if err != nil {
		return err
	}
	req, err := serve.RequestFromDataset(m.Name, ds, n)
	if err != nil {
		return err
	}
	return serve.EncodeJSON(os.Stdout, req)
}

// scoreRequestJSON scores a serve-format request file offline, through
// the exact decode/validate/kernel path the daemon uses, and prints the
// serve-format response.
func scoreRequestJSON(modelPath, reqPath string) error {
	m, err := serve.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	body, err := os.ReadFile(reqPath)
	if err != nil {
		return err
	}
	req, err := serve.ScanPredict(body)
	if err != nil {
		return err
	}
	if string(req.Model) != m.Name {
		log.Printf("note: request names model %q, scoring with %q", req.Model, m.Name)
	}
	resp, err := serve.ScoreRequest(context.Background(), m, &req)
	if err != nil {
		return err
	}
	return serve.EncodeJSON(os.Stdout, resp)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
